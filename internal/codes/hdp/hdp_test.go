package hdp

import (
	"testing"

	"code56/internal/codes/codetest"
	"code56/internal/layout"
)

func TestConformance(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		c := MustNew(p)
		codetest.Conformance(t, c, codetest.Expect{
			Rows:        p - 1,
			Cols:        p - 1,
			DataCells:   (p - 1) * (p - 3),
			ParityCells: 2 * (p - 1),
		})
	}
}

func TestRejectsBadP(t *testing.T) {
	for _, p := range []int{0, 1, 2, 3, 4, 6, 9} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

// TestParityOnBothDiagonals: the load-balance property — parities occupy the
// two diagonals of the square stripe, so every disk carries exactly two
// parity cells per stripe.
func TestParityOnBothDiagonals(t *testing.T) {
	p := 7
	c := MustNew(p)
	perCol := make([]int, p-1)
	for r := 0; r < p-1; r++ {
		for j := 0; j < p-1; j++ {
			if c.Kind(r, j).IsParity() {
				perCol[j]++
			}
		}
	}
	for j, n := range perCol {
		if n != 2 {
			t.Errorf("column %d carries %d parity cells, want 2", j, n)
		}
	}
}

// TestUpdateComplexity documents HDP's structure: every data cell is in
// exactly 2 chains, but horizontal chains also cover the anti-diagonal
// parity cells (the "Medium" single-write cost of the paper's Table III:
// updating a data element dirties its anti-diagonal parity, whose row's
// horizontal parity must then change too).
func TestUpdateComplexity(t *testing.T) {
	for _, p := range []int{5, 7, 11} {
		c := MustNew(p)
		codetest.UpdateComplexity(t, c, 2)
		covered := 0
		for _, pe := range layout.ParityElements(c) {
			if c.Kind(pe.Row, pe.Col) == layout.ParityA {
				if n := len(layout.ChainsCovering(c, pe)); n != 1 {
					t.Errorf("p=%d: anti-diagonal parity %v in %d chains, want 1", p, pe, n)
				}
				covered++
			}
		}
		if covered != p-1 {
			t.Errorf("p=%d: %d anti-diagonal parities, want %d", p, covered, p-1)
		}
	}
}

func TestPeelable(t *testing.T) {
	codetest.PeelableForColumnPairs(t, MustNew(5))
	codetest.PeelableForColumnPairs(t, MustNew(7))
}

// TestExactTolerance: the code tolerates exactly 2 column failures.
func TestExactTolerance(t *testing.T) {
	codetest.ExactTolerance(t, MustNew(5))
}
