package hcode

import (
	"testing"

	"code56/internal/codes/codetest"
	"code56/internal/layout"
)

func TestConformance(t *testing.T) {
	for _, p := range []int{3, 5, 7, 11, 13} {
		c := MustNew(p)
		codetest.Conformance(t, c, codetest.Expect{
			Rows:        p - 1,
			Cols:        p + 1,
			DataCells:   (p - 1) * (p - 1),
			ParityCells: 2 * (p - 1),
		})
	}
}

func TestRejectsNonPrime(t *testing.T) {
	for _, p := range []int{0, 1, 2, 4, 10} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

// TestUpdateComplexity: H-Code has optimal update complexity (the property
// its paper optimizes partial-stripe writes around).
func TestUpdateComplexity(t *testing.T) {
	for _, p := range []int{5, 7, 11} {
		codetest.UpdateComplexity(t, MustNew(p), 2)
	}
}

// TestAntiDiagonalPlacement: horizontal parities sit at (i, p-2-i), the
// layout that makes H-Code "suitable for conversion from right-asymmetric
// RAID-5" per the Code 5-6 paper's §V-A.
func TestAntiDiagonalPlacement(t *testing.T) {
	p := 7
	c := MustNew(p)
	for i := 0; i < p-1; i++ {
		if k := c.Kind(i, p-2-i); k != layout.ParityH {
			t.Errorf("Kind(%d,%d) = %v, want ParityH", i, p-2-i, k)
		}
	}
	// Column p-1 is pure data; column p pure diagonal parity.
	for i := 0; i < p-1; i++ {
		if k := c.Kind(i, p-1); k != layout.Data {
			t.Errorf("Kind(%d,%d) = %v, want Data", i, p-1, k)
		}
		if k := c.Kind(i, p); k != layout.ParityD {
			t.Errorf("Kind(%d,%d) = %v, want ParityD", i, p, k)
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
