package evenodd

import (
	"bytes"
	"math/rand"
	"testing"

	"code56/internal/codes/codetest"
	"code56/internal/layout"
	"code56/internal/xorblk"
)

func TestConformance(t *testing.T) {
	for _, p := range []int{3, 5, 7, 11, 13} {
		c := MustNew(p)
		codetest.Conformance(t, c, codetest.Expect{
			Rows:        p - 1,
			Cols:        p + 2,
			DataCells:   (p - 1) * p,
			ParityCells: 2 * (p - 1),
		})
	}
}

func TestRejectsNonPrime(t *testing.T) {
	for _, p := range []int{0, 1, 2, 4, 6} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

// TestSAdjuster verifies the chain formulation against EVENODD's original
// definition: diagonal parity i = S XOR (XOR of diagonal i), with S the XOR
// of diagonal p-1.
func TestSAdjuster(t *testing.T) {
	for _, p := range []int{5, 7} {
		c := MustNew(p)
		s := layout.NewStripe(c.Geometry(), 16)
		s.FillRandom(c, rand.New(rand.NewSource(5)))
		layout.Encode(c, s)

		adj := make([]byte, 16)
		for _, co := range c.diagonal(p - 1) {
			xorblk.Xor(adj, s.Block(co))
		}
		for d := 0; d < p-1; d++ {
			want := append([]byte(nil), adj...)
			for _, co := range c.diagonal(d) {
				xorblk.Xor(want, s.Block(co))
			}
			got := s.Block(layout.Coord{Row: d, Col: p + 1})
			if !bytes.Equal(got, want) {
				t.Errorf("p=%d: diagonal parity %d does not match S-adjusted definition", p, d)
			}
		}
	}
}

// TestNotPeelable documents that EVENODD double data-column failures defeat
// pure peeling (every diagonal chain shares the S diagonal), which is why
// the framework's GF(2) elimination decoder exists.
func TestNotPeelable(t *testing.T) {
	c := MustNew(5)
	orig := layout.NewStripe(c.Geometry(), 16)
	orig.FillRandom(c, rand.New(rand.NewSource(6)))
	layout.Encode(c, orig)
	s := orig.Clone()
	es := layout.EraseColumns(s, 0, 1)
	dec := layout.NewDecoder(c)
	if dec.ColumnPlan(layout.Columns{}.With(0).With(1)) != nil {
		t.Fatal("expected peeling to get stuck on EVENODD")
	}
	// ... and elimination finishes the job on the partial state.
	st, err := dec.Reconstruct(s, es)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedElimination || len(es) != 0 {
		t.Fatalf("stats %+v with %d cells still missing, want elimination to empty the set", st, len(es))
	}
	if !s.Equal(orig) {
		t.Fatal("elimination recovery produced wrong contents")
	}
}

// TestUpdateComplexity documents EVENODD's high update cost: cells on the S
// diagonal are covered by *every* diagonal chain plus their row chain.
func TestUpdateComplexity(t *testing.T) {
	p := 5
	c := MustNew(p)
	for _, d := range layout.DataElements(c) {
		n := len(layout.ChainsCovering(c, d))
		onS := (d.Row+d.Col)%p == p-1
		want := 2
		if onS {
			want = p // row chain + all p-1 diagonal chains
		}
		if n != want {
			t.Errorf("cell %v (S diagonal=%v): in %d chains, want %d", d, onS, n, want)
		}
	}
}

// TestExactTolerance: the code tolerates exactly 2 column failures.
func TestExactTolerance(t *testing.T) {
	codetest.ExactTolerance(t, MustNew(5))
}
