package core

import (
	"math/rand"
	"testing"

	"code56/internal/layout"
)

var testPrimes = []int{3, 5, 7, 11, 13}

func TestNewRejectsNonPrimes(t *testing.T) {
	for _, p := range []int{-1, 0, 1, 2, 4, 6, 8, 9, 10, 12, 15} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

func TestStructure(t *testing.T) {
	for _, p := range testPrimes {
		for _, o := range []Orientation{Left, Right} {
			c, err := NewOriented(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := layout.ValidateStructure(c); err != nil {
				t.Errorf("p=%d orient=%d: %v", p, o, err)
			}
			g := c.Geometry()
			if g.Rows != p-1 || g.Cols != p {
				t.Errorf("p=%d: geometry %dx%d, want %dx%d", p, g.Rows, g.Cols, p-1, p)
			}
			if got := len(c.Chains()); got != 2*(p-1) {
				t.Errorf("p=%d: %d chains, want %d", p, got, 2*(p-1))
			}
			if got := len(layout.DataElements(c)); got != (p-1)*(p-2) {
				t.Errorf("p=%d: %d data elements, want %d", p, got, (p-1)*(p-2))
			}
		}
	}
}

// TestPaperExample verifies the worked example of the paper (p=5, i=1):
// C[1][4] = C[0][0] ^ C[3][2] ^ C[2][3].
func TestPaperExample(t *testing.T) {
	c := MustNew(5)
	ch := c.dChain(1)
	want := map[layout.Coord]bool{
		{Row: 0, Col: 0}: true,
		{Row: 3, Col: 2}: true,
		{Row: 2, Col: 3}: true,
	}
	if ch.Parity != (layout.Coord{Row: 1, Col: 4}) {
		t.Fatalf("diag chain 1 parity at %v, want (1,4)", ch.Parity)
	}
	if len(ch.Covers) != len(want) {
		t.Fatalf("diag chain 1 covers %v, want 3 elements", ch.Covers)
	}
	for _, m := range ch.Covers {
		if !want[m] {
			t.Errorf("unexpected member %v in diagonal chain 1", m)
		}
	}
}

// TestHorizontalParityPlacement checks that horizontal parities sit on the
// anti-diagonal (paper Fig. 4a): parity of row i at column p-2-i.
func TestHorizontalParityPlacement(t *testing.T) {
	for _, p := range testPrimes {
		c := MustNew(p)
		for i := 0; i < p-1; i++ {
			if got := c.HParityCol(i); got != p-2-i {
				t.Errorf("p=%d row %d: parity col %d, want %d", p, i, got, p-2-i)
			}
			if k := c.Kind(i, p-2-i); k != layout.ParityH {
				t.Errorf("p=%d: Kind(%d,%d)=%v, want ParityH", p, i, p-2-i, k)
			}
		}
	}
}

// TestUpdateComplexity asserts the optimal single-write property (§III-E-3):
// every data element belongs to exactly one horizontal and one diagonal
// chain.
func TestUpdateComplexity(t *testing.T) {
	for _, p := range testPrimes {
		for _, o := range []Orientation{Left, Right} {
			c, _ := NewOriented(p, o)
			for _, d := range layout.DataElements(c) {
				idx := layout.ChainsCovering(c, d)
				if len(idx) != 2 {
					t.Fatalf("p=%d %v: element %v in %d chains, want 2", p, o, d, len(idx))
				}
				kinds := map[layout.Kind]int{}
				for _, i := range idx {
					kinds[c.Chains()[i].Kind]++
				}
				if kinds[layout.ParityH] != 1 || kinds[layout.ParityD] != 1 {
					t.Fatalf("p=%d: element %v chains %v", p, d, kinds)
				}
			}
			// Parity elements belong to no chain's cover set.
			for _, pe := range layout.ParityElements(c) {
				if n := len(layout.ChainsCovering(c, pe)); n != 0 {
					t.Fatalf("p=%d: parity %v covered by %d chains, want 0", p, pe, n)
				}
			}
		}
	}
}

// TestEncodeXORCount asserts the optimal encoding complexity of §III-E-2:
// 2(p-1)(p-3) XORs per stripe.
func TestEncodeXORCount(t *testing.T) {
	for _, p := range testPrimes {
		c := MustNew(p)
		s := layout.NewStripe(c.Geometry(), 8)
		s.FillRandom(c, rand.New(rand.NewSource(9)))
		got := layout.Encode(c, s)
		want := 2 * (p - 1) * (p - 3)
		if got != want {
			t.Errorf("p=%d: encode used %d XORs, want %d", p, got, want)
		}
	}
}

func TestMDS(t *testing.T) {
	for _, p := range testPrimes {
		for _, o := range []Orientation{Left, Right} {
			c, _ := NewOriented(p, o)
			if err := layout.CheckMDS(c, int64(p)); err != nil {
				t.Errorf("orient=%d: %v", o, err)
			}
		}
	}
}

// TestAlgorithm1 exercises the paper's explicit double-failure
// reconstruction for every column pair and compares the result with the
// original stripe, for both orientations, sequential and parallel chains.
func TestAlgorithm1(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, p := range testPrimes {
		for _, o := range []Orientation{Left, Right} {
			c, _ := NewOriented(p, o)
			orig := layout.NewStripe(c.Geometry(), 32)
			orig.FillRandom(c, r)
			layout.Encode(c, orig)
			for f1 := 0; f1 < p; f1++ {
				for f2 := f1 + 1; f2 < p; f2++ {
					for _, par := range []bool{false, true} {
						s := orig.Clone()
						s.ZeroColumn(f1)
						s.ZeroColumn(f2)
						var st layout.DecodeStats
						var err error
						if par {
							st, err = c.ReconstructDoubleParallel(s, f2, f1) // order must not matter
						} else {
							st, err = c.ReconstructDouble(s, f1, f2)
						}
						if err != nil {
							t.Fatalf("p=%d o=%d cols (%d,%d) par=%v: %v", p, o, f1, f2, par, err)
						}
						if !s.Equal(orig) {
							t.Fatalf("p=%d o=%d cols (%d,%d) par=%v: wrong reconstruction", p, o, f1, f2, par)
						}
						if st.Recovered != 2*(p-1) {
							t.Errorf("p=%d cols (%d,%d): recovered %d elements, want %d", p, f1, f2, st.Recovered, 2*(p-1))
						}
					}
				}
			}
		}
	}
}

// TestDecodeXORCountPerElement asserts the optimal decoding complexity of
// §III-E-2: recovering any single element costs p-3 XORs.
func TestDecodeXORCountPerElement(t *testing.T) {
	for _, p := range testPrimes {
		c := MustNew(p)
		orig := layout.NewStripe(c.Geometry(), 8)
		orig.FillRandom(c, rand.New(rand.NewSource(3)))
		layout.Encode(c, orig)
		for f1 := 0; f1 < p; f1++ {
			for f2 := f1 + 1; f2 < p; f2++ {
				s := orig.Clone()
				s.ZeroColumn(f1)
				s.ZeroColumn(f2)
				st, err := c.ReconstructDouble(s, f1, f2)
				if err != nil {
					t.Fatal(err)
				}
				perElement := float64(st.XORs) / float64(st.Recovered)
				if want := float64(p - 3); perElement != want {
					t.Errorf("p=%d cols (%d,%d): %.2f XORs/element, want %.0f", p, f1, f2, perElement, want)
				}
			}
		}
	}
}

func TestReconstructDoubleRejectsBadColumns(t *testing.T) {
	c := MustNew(5)
	s := layout.NewStripe(c.Geometry(), 8)
	if _, err := c.ReconstructDouble(s, 1, 1); err == nil {
		t.Error("identical columns should fail")
	}
	if _, err := c.ReconstructDouble(s, -1, 2); err == nil {
		t.Error("negative column should fail")
	}
	if _, err := c.ReconstructDouble(s, 0, 5); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := c.RecoverSingle(s, 9); err == nil {
		t.Error("out-of-range single column should fail")
	}
}

func TestRecoverSingle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, p := range testPrimes {
		c := MustNew(p)
		orig := layout.NewStripe(c.Geometry(), 16)
		orig.FillRandom(c, r)
		layout.Encode(c, orig)
		for f := 0; f < p; f++ {
			s := orig.Clone()
			s.ZeroColumn(f)
			st, err := c.RecoverSingle(s, f)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Equal(orig) {
				t.Fatalf("p=%d col %d: wrong single recovery", p, f)
			}
			if f < p-1 && st.BlocksRead != c.ConventionalReads() {
				t.Errorf("p=%d col %d: conventional recovery read %d blocks, want %d", p, f, st.BlocksRead, c.ConventionalReads())
			}
		}
	}
}

// TestHybridRecovery verifies the paper's §III-E-4 claim: at p=5, hybrid
// recovery reads 9 blocks per stripe versus 12 for the conventional
// approach (a 25%+ reduction, the paper says "up to 33%" counting its
// specific shared-element accounting).
func TestHybridRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, p := range []int{5, 7, 11, 13} {
		c := MustNew(p)
		orig := layout.NewStripe(c.Geometry(), 16)
		orig.FillRandom(c, r)
		layout.Encode(c, orig)
		for f := 0; f < p-1; f++ {
			plan, err := c.PlanHybridRecovery(f)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Reads >= c.ConventionalReads() {
				t.Errorf("p=%d col %d: hybrid reads %d, conventional %d — no saving", p, f, plan.Reads, c.ConventionalReads())
			}
			s := orig.Clone()
			s.ZeroColumn(f)
			st, err := c.ExecuteRecoveryPlan(s, plan)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Equal(orig) {
				t.Fatalf("p=%d col %d: hybrid recovery produced wrong contents", p, f)
			}
			if st.BlocksRead != plan.Reads {
				t.Errorf("p=%d col %d: executed reads %d != planned %d", p, f, st.BlocksRead, plan.Reads)
			}
		}
	}
	// Paper's concrete numbers at p=5.
	c := MustNew(5)
	plan, err := c.PlanHybridRecovery(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.ConventionalReads() != 12 {
		t.Errorf("p=5 conventional reads = %d, want 12", c.ConventionalReads())
	}
	if plan.Reads != 9 {
		t.Errorf("p=5 hybrid reads = %d, want 9", plan.Reads)
	}
}

func TestHybridRecoveryRejectsParityColumn(t *testing.T) {
	c := MustNew(5)
	if _, err := c.PlanHybridRecovery(4); err == nil {
		t.Error("diagonal parity column has no hybrid plan; expected error")
	}
}

// TestStorageEfficiency asserts the MDS optimum (n-2)/n.
func TestStorageEfficiency(t *testing.T) {
	for _, p := range testPrimes {
		c := MustNew(p)
		got := layout.StorageEfficiency(c)
		want := float64(p-2) / float64(p)
		if got != want {
			t.Errorf("p=%d: efficiency %f, want %f", p, got, want)
		}
	}
}

// TestAgainstGenericDecoder cross-checks Algorithm 1 against the generic
// peeling decoder on identical erasures.
func TestAgainstGenericDecoder(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, p := range []int{5, 7, 11} {
		c := MustNew(p)
		orig := layout.NewStripe(c.Geometry(), 16)
		orig.FillRandom(c, r)
		layout.Encode(c, orig)
		for f1 := 0; f1 < p; f1++ {
			for f2 := f1 + 1; f2 < p; f2++ {
				a := orig.Clone()
				a.ZeroColumn(f1)
				a.ZeroColumn(f2)
				if _, err := c.ReconstructDouble(a, f1, f2); err != nil {
					t.Fatal(err)
				}
				b := orig.Clone()
				es := layout.EraseColumns(b, f1, f2)
				if st, err := layout.Reconstruct(c, b, es); err != nil || st.UsedElimination {
					t.Fatalf("p=%d (%d,%d): peeling failed: %v (elimination used: %v)", p, f1, f2, err, st.UsedElimination)
				}
				if !a.Equal(b) {
					t.Fatalf("p=%d (%d,%d): Algorithm 1 and peeling disagree", p, f1, f2)
				}
			}
		}
	}
}

// TestExactTolerance: Code 5-6 tolerates exactly 2 column failures — all
// pairs recover, some triple does not (MDS redundancy fully used).
func TestExactTolerance(t *testing.T) {
	got, err := layout.MeasureTolerance(MustNew(5), 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("measured tolerance %d, want 2", got)
	}
}

// TestLargePrime exercises the full stack at p=17 (16x17 stripes): MDS
// over all pairs plus Algorithm 1 and hybrid recovery. Skipped with -short.
func TestLargePrime(t *testing.T) {
	if testing.Short() {
		t.Skip("large-prime sweep skipped in -short mode")
	}
	const p = 17
	c := MustNew(p)
	if err := layout.CheckMDS(c, 1); err != nil {
		t.Fatal(err)
	}
	orig := layout.NewStripe(c.Geometry(), 16)
	orig.FillRandom(c, rand.New(rand.NewSource(1)))
	layout.Encode(c, orig)
	s := orig.Clone()
	s.ZeroColumn(3)
	s.ZeroColumn(11)
	if _, err := c.ReconstructDouble(s, 3, 11); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(orig) {
		t.Fatal("wrong reconstruction at p=17")
	}
	plan, err := c.PlanHybridRecovery(2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reads >= c.ConventionalReads() {
		t.Errorf("no hybrid saving at p=17: %d vs %d", plan.Reads, c.ConventionalReads())
	}
}

// P carries //c56:noalloc: the online migrator's per-stripe conversion, which
// is held to zero allocations, asks it of the code.
func TestPAllocationFree(t *testing.T) {
	c := MustNew(13)
	if n := testing.AllocsPerRun(100, func() { _ = c.P() }); n != 0 {
		t.Errorf("P allocates %.1f times per call, want 0", n)
	}
}
