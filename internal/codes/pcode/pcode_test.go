package pcode

import (
	"testing"

	"code56/internal/codes/codetest"
	"code56/internal/layout"
)

func TestConformancePMinus1(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		c := MustNew(p, VariantPMinus1)
		codetest.Conformance(t, c, codetest.Expect{
			Rows:        (p - 1) / 2,
			Cols:        p - 1,
			DataCells:   (p - 1) * (p - 3) / 2,
			ParityCells: p - 1,
		})
	}
}

func TestConformanceP(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		c := MustNew(p, VariantP)
		codetest.Conformance(t, c, codetest.Expect{
			Rows:        (p - 1) / 2,
			Cols:        p,
			DataCells:   (p - 1) * (p - 2) / 2,
			ParityCells: p - 1,
		})
	}
}

func TestRejectsBadP(t *testing.T) {
	for _, p := range []int{0, 1, 2, 3, 4, 6, 9} {
		if _, err := New(p, VariantPMinus1); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

// TestUpdateComplexity: each data element carries a 2-element label, hence
// exactly 2 parity chains — optimal.
func TestUpdateComplexity(t *testing.T) {
	for _, v := range []Variant{VariantPMinus1, VariantP} {
		codetest.UpdateComplexity(t, MustNew(7, v), 2)
	}
}

// TestLabels checks the pair-labeling construction invariants.
func TestLabels(t *testing.T) {
	for _, p := range []int{5, 7, 11} {
		for _, v := range []Variant{VariantPMinus1, VariantP} {
			c := MustNew(p, v)
			seen := make(map[[2]int]bool)
			for _, d := range layout.DataElements(c) {
				l, ok := c.Label(d)
				if !ok {
					t.Fatalf("p=%d v=%d: data cell %v has no label", p, v, d)
				}
				if seen[l] {
					t.Fatalf("p=%d v=%d: label %v duplicated", p, v, l)
				}
				seen[l] = true
				if l[0] < 1 || l[1] > p-1 || l[0] >= l[1] {
					t.Fatalf("p=%d: malformed label %v", p, l)
				}
				sum := (l[0] + l[1]) % p
				wantCol := c.columnOf(sum)
				if v == VariantPMinus1 && sum == 0 {
					t.Fatalf("p=%d variant p-1: zero-sum label %v present", p, l)
				}
				if d.Col != wantCol {
					t.Fatalf("p=%d: label %v in column %d, want %d", p, l, d.Col, wantCol)
				}
			}
		}
	}
}

// TestPeelable: P-Code's double-failure recovery proceeds chain by chain.
func TestPeelable(t *testing.T) {
	for _, v := range []Variant{VariantPMinus1, VariantP} {
		codetest.PeelableForColumnPairs(t, MustNew(5, v))
		codetest.PeelableForColumnPairs(t, MustNew(7, v))
	}
}

// TestExactTolerance: both variants tolerate exactly 2 column failures.
func TestExactTolerance(t *testing.T) {
	codetest.ExactTolerance(t, MustNew(5, VariantPMinus1))
	codetest.ExactTolerance(t, MustNew(5, VariantP))
}
