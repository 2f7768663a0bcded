package xcode

import (
	"testing"

	"code56/internal/codes/codetest"
)

func TestConformance(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		c := MustNew(p)
		codetest.Conformance(t, c, codetest.Expect{
			Rows:        p,
			Cols:        p,
			DataCells:   (p - 2) * p,
			ParityCells: 2 * p,
		})
	}
}

func TestRejectsNonPrime(t *testing.T) {
	for _, p := range []int{0, 1, 2, 4, 8, 9} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

// TestUpdateComplexity: X-Code has optimal update complexity — every data
// cell in exactly one diagonal and one anti-diagonal chain.
func TestUpdateComplexity(t *testing.T) {
	for _, p := range []int{5, 7, 11} {
		codetest.UpdateComplexity(t, MustNew(p), 2)
	}
}

// TestPeelable: X-Code double-failure recovery zig-zags between the two
// parity families — pure peeling.
func TestPeelable(t *testing.T) {
	codetest.PeelableForColumnPairs(t, MustNew(5))
	codetest.PeelableForColumnPairs(t, MustNew(7))
	codetest.PeelableForColumnPairs(t, MustNew(11))
}

// TestExactTolerance: the code tolerates exactly 2 column failures.
func TestExactTolerance(t *testing.T) {
	codetest.ExactTolerance(t, MustNew(5))
}
