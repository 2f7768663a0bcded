package rdp

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
	for _, p := range []int{0, 1, 2, 4, 9} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
}

// TestUpdateComplexity documents RDP's known non-optimal update complexity:
// data cells on the missing diagonal (p-1) belong only to their row chain
// plus zero diagonals... no: they belong to the row chain only? In RDP every
// data cell is on exactly one of diagonals 0..p-1; cells on diagonal p-1
// have no diagonal parity, so they are covered by 1 chain directly — but
// updating them still dirties every diagonal indirectly through the row
// parity. Structurally: cells on diagonals 0..p-2 are in 2 chains, cells on
// the missing diagonal in 1.
func TestUpdateComplexity(t *testing.T) {
	for _, p := range []int{5, 7, 11} {
		c := MustNew(p)
		missing := 0
		for _, d := range layout.DataElements(c) {
			switch n := len(layout.ChainsCovering(c, d)); n {
			case 2:
			case 1:
				missing++
				if (d.Row+d.Col)%p != p-1 {
					t.Errorf("p=%d: single-chain cell %v not on missing diagonal", p, d)
				}
			default:
				t.Errorf("p=%d: cell %v in %d chains", p, d, n)
			}
		}
		// The missing diagonal has p-1 cells across columns 0..p-1, one of
		// which — (0, p-1) — is the row parity, not data.
		if missing != p-2 {
			t.Errorf("p=%d: %d data cells on missing diagonal, want %d", p, missing, p-2)
		}
		// The row-parity column is covered by diagonal chains (the RDP
		// signature): all but one of its cells.
		covered := 0
		for i := 0; i < p-1; i++ {
			if len(layout.ChainsCovering(c, layout.Coord{Row: i, Col: p - 1})) > 0 {
				covered++
			}
		}
		if covered != p-2 {
			t.Errorf("p=%d: %d row-parity cells covered by diagonals, want %d", p, covered, p-2)
		}
	}
}

// TestPeelable: RDP's double-failure recovery is the classic zig-zag,
// i.e. pure peeling.
func TestPeelable(t *testing.T) {
	codetest.PeelableForColumnPairs(t, MustNew(5))
	codetest.PeelableForColumnPairs(t, MustNew(7))
	codetest.PeelableForColumnPairs(t, MustNew(13))
}

// TestExactTolerance: the code tolerates exactly 2 column failures.
func TestExactTolerance(t *testing.T) {
	codetest.ExactTolerance(t, MustNew(5))
}
