// Package codetest provides the shared conformance suite every array code
// implementation in this repository must pass: structural validity,
// round-trip encode/verify, and the exhaustive MDS property over all column
// failure combinations.
package codetest

import (
	"math/rand"
	"testing"

	"code56/internal/layout"
)

// Expect describes the geometry facts a code must exhibit.
type Expect struct {
	Rows, Cols  int
	DataCells   int
	ParityCells int
}

// Conformance runs the shared suite against c.
func Conformance(t *testing.T, c layout.Code, e Expect) {
	t.Helper()
	if err := layout.ValidateStructure(c); err != nil {
		t.Fatalf("structure: %v", err)
	}
	g := c.Geometry()
	if g.Rows != e.Rows || g.Cols != e.Cols {
		t.Fatalf("geometry %dx%d, want %dx%d", g.Rows, g.Cols, e.Rows, e.Cols)
	}
	if n := len(layout.DataElements(c)); n != e.DataCells {
		t.Errorf("%d data cells, want %d", n, e.DataCells)
	}
	if n := len(layout.ParityElements(c)); n != e.ParityCells {
		t.Errorf("%d parity cells, want %d", n, e.ParityCells)
	}
	if n := len(c.Chains()); n != e.ParityCells {
		t.Errorf("%d chains, want %d (one per parity cell)", n, e.ParityCells)
	}

	// Encode → Verify round trip; corrupting any single block must break
	// verification (every cell participates in at least one chain).
	s := layout.NewStripe(g, 16)
	s.FillRandom(c, rand.New(rand.NewSource(42)))
	layout.Encode(c, s)
	if !layout.Verify(c, s) {
		t.Fatal("encoded stripe fails verification")
	}
	for r := 0; r < g.Rows; r++ {
		for j := 0; j < g.Cols; j++ {
			b := s.Block(layout.Coord{Row: r, Col: j})
			b[0] ^= 0xff
			if layout.Verify(c, s) {
				t.Fatalf("corruption at (%d,%d) undetected", r, j)
			}
			b[0] ^= 0xff
		}
	}

	if err := layout.CheckMDS(c, 7); err != nil {
		t.Fatal(err)
	}

	// MDS storage efficiency: data/(data+parity) must equal (n-2)/n scaled
	// to the stripe, i.e. parity cells == 2 * rows-worth of two columns?
	// For the codes here the invariant is simply: parity cells equal
	// 2/Cols of all cells.
	if e.ParityCells*g.Cols != 2*g.Elements() {
		t.Errorf("parity cells %d: not 2 columns' worth of a %dx%d stripe", e.ParityCells, g.Rows, g.Cols)
	}
}

// UpdateComplexity asserts that every data element is covered by exactly
// want chains (2 = optimal for RAID-6).
func UpdateComplexity(t *testing.T, c layout.Code, want int) {
	t.Helper()
	for _, d := range layout.DataElements(c) {
		if n := len(layout.ChainsCovering(c, d)); n != want {
			t.Fatalf("element %v in %d chains, want %d", d, n, want)
		}
	}
}

// PeelableForColumnPairs asserts that the decoder's compiled peeling plans
// alone (no elimination) recover every single and double column erasure —
// true for every code here except EVENODD.
func PeelableForColumnPairs(t *testing.T, c layout.Code) {
	t.Helper()
	g := c.Geometry()
	orig := layout.NewStripe(g, 16)
	orig.FillRandom(c, rand.New(rand.NewSource(13)))
	layout.Encode(c, orig)
	dec := layout.NewDecoder(c)
	for f1 := 0; f1 < g.Cols; f1++ {
		for f2 := f1; f2 < g.Cols; f2++ { // f2 == f1: the one column alone
			s := orig.Clone()
			layout.EraseColumns(s, f1, f2)
			plan := dec.ColumnPlan(layout.Columns{}.With(f1).With(f2))
			if plan == nil {
				t.Fatalf("columns (%d,%d): peeling stalls", f1, f2)
			}
			plan.Run(s)
			if !s.Equal(orig) {
				t.Fatalf("columns (%d,%d): wrong contents", f1, f2)
			}
		}
	}
}

// ExactTolerance asserts that the measured column-failure tolerance equals
// the code's declared FaultTolerance(): every 2-column erasure recovers and
// some 3-column erasure does not.
func ExactTolerance(t *testing.T, c layout.Code) {
	t.Helper()
	got, err := layout.MeasureTolerance(c, c.FaultTolerance()+1, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != c.FaultTolerance() {
		t.Fatalf("measured tolerance %d, declared %d", got, c.FaultTolerance())
	}
}
