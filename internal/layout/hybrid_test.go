package layout_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
)

// The one-column plan is the paper's hybrid recovery (§III-E-4) for every
// code: these tests hold it to the chains, to core's Code 5-6 planner, and to
// the horizontal-first peeling plan a column got before, which Compile still
// builds for it.

func allCodes(p int) map[string]layout.Code {
	return map[string]layout.Code{
		"code56":  core.MustNew(p),
		"rdp":     rdp.MustNew(p),
		"evenodd": evenodd.MustNew(p),
		"xcode":   xcode.MustNew(p),
		"hcode":   hcode.MustNew(p),
		"hdp":     hdp.MustNew(p),
		"pcode":   pcode.MustNew(p, pcode.VariantPMinus1),
	}
}

// peeled is the horizontal-first peeling plan of one lost column.
func peeled(dec *layout.Decoder, g layout.Geometry, col int) *layout.Plan {
	es := layout.ErasureSet{}
	for r := 0; r < g.Rows; r++ {
		es[layout.Coord{Row: r, Col: col}] = true
	}
	return dec.Compile(es)
}

// substituted returns, for each cell a plan recovers, the surviving cells
// whose XOR it is: a step's sources with every recovered one replaced by its
// own, a cell met twice cancelled. It is what a degraded read of the cell
// reads.
func substituted(plan *layout.Plan) map[layout.Coord]map[layout.Coord]bool {
	out := map[layout.Coord]map[layout.Coord]bool{}
	for _, st := range plan.Steps() {
		expr := map[layout.Coord]bool{}
		flip := func(c layout.Coord) {
			if expr[c] {
				delete(expr, c)
			} else {
				expr[c] = true
			}
		}
		for _, m := range st.Sources {
			if sub, ok := out[m]; ok {
				for c := range sub {
					flip(c)
				}
			} else {
				flip(m)
			}
		}
		out[st.Missing] = expr
	}
	return out
}

// TestColumnPlanEveryCodeEveryColumn: for every code and every lost column,
// at every prime the tools report, the plan rebuilds the column; each cell's sources are the other members of one
// of its shortest chains that meet the column nowhere else; and the plan reads
// no more distinct blocks, nor any cell more sources, than horizontal-first
// peeling.
func TestColumnPlanEveryCodeEveryColumn(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range []int{5, 7, 11, 13} {
		for name, code := range allCodes(p) {
			g := code.Geometry()
			chains := code.Chains()
			dec := layout.NewDecoder(code)
			orig := encoded(code, 16, int64(p))
			for col := 0; col < g.Cols; col++ {
				ctx := fmt.Sprintf("%s p=%d col %d", name, p, col)
				plan := dec.ColumnPlan(columnsOf(col))
				if plan == nil || !plan.Complete() {
					t.Fatalf("%s: no plan", ctx)
				}
				s := orig.Clone()
				garble(s, r, col)
				plan.Run(s)
				if !s.Equal(orig) {
					t.Fatalf("%s: wrong rebuild", ctx)
				}
				if st := plan.Stats(); st.Recovered != g.Rows {
					t.Errorf("%s: recovered %d cells, want %d", ctx, st.Recovered, g.Rows)
				}
				// shortest[r]: the fewest members of a chain through cell r
				// that meets the column nowhere else.
				shortest := make([]int, g.Rows)
				for _, ch := range chains {
					var in []layout.Coord
					for _, m := range ch.Members() {
						if m.Col == col {
							in = append(in, m)
						}
					}
					if len(in) == 1 && (shortest[in[0].Row] == 0 || len(ch.Members()) < shortest[in[0].Row]) {
						shortest[in[0].Row] = len(ch.Members())
					}
				}
				for _, st := range plan.Steps() {
					members := chains[st.Chain].Members()
					if len(members) != shortest[st.Missing.Row] || len(st.Sources) != len(members)-1 {
						t.Fatalf("%s: cell %v by chain %d of %d members, %d sources; its shortest has %d", ctx, st.Missing, st.Chain, len(members), len(st.Sources), shortest[st.Missing.Row])
					}
					for _, m := range st.Sources {
						if m.Col == col {
							t.Fatalf("%s: cell %v reads %v, a cell of its own column", ctx, st.Missing, m)
						}
					}
				}
				checkSources(t, ctx, plan, orig, []int{col})

				old := peeled(dec, g, col)
				if !old.Complete() {
					continue
				}
				if name == "code56" && col == p-1 && !reflect.DeepEqual(plan.Steps(), old.Steps()) {
					// One chain a cell: the conversion's plan is unchanged.
					t.Errorf("%s: the diagonal-parity column's steps changed", ctx)
				}
				if got, was := plan.Stats().BlocksRead, old.Stats().BlocksRead; got > was {
					t.Errorf("%s: %d distinct reads, horizontal-first peeling %d", ctx, got, was)
				}
				for cell, was := range substituted(old) {
					if got := len(plan.Sources(cell)); got > len(was) {
						t.Errorf("%s: cell %v reads %d sources, %d before", ctx, cell, got, len(was))
					}
				}
			}
		}
	}
}

// TestMatchesCode56Specialized: for every data column of Code 5-6, in both
// orientations, the plan reads what core's paper-shaped hybrid planner
// (§III-E-4) reads: 9, 22, 66 and 97 blocks a stripe at p = 5, 7, 11, 13.
func TestMatchesCode56Specialized(t *testing.T) {
	want := map[int]int{5: 9, 7: 22, 11: 66, 13: 97}
	for p, reads := range want {
		for _, orient := range []core.Orientation{core.Left, core.Right} {
			c, err := core.NewOriented(p, orient)
			if err != nil {
				t.Fatal(err)
			}
			dec := layout.NewDecoder(c)
			for failed := 0; failed < p-1; failed++ {
				special, err := c.PlanHybridRecovery(failed)
				if err != nil {
					t.Fatal(err)
				}
				got := dec.ColumnPlan(columnsOf(failed)).Stats().BlocksRead
				if got != special.Reads || got != reads {
					t.Errorf("p=%d %v col %d: plan reads %d, core's planner %d, want %d", p, orient, failed, got, special.Reads, reads)
				}
			}
		}
	}
}

// TestKnownSavings pins the paper-adjacent numbers: Code 5-6 at p=5 reads 9,
// not the horizontal chains' 12; RDP's hybrid recovery saves reads as Xiang
// et al. describe (12, not 16, at p=5).
func TestKnownSavings(t *testing.T) {
	for _, tc := range []struct {
		code        layout.Code
		hybrid, was int
	}{{core.MustNew(5), 9, 12}, {rdp.MustNew(5), 12, 16}} {
		dec := layout.NewDecoder(tc.code)
		got := dec.ColumnPlan(columnsOf(1)).Stats().BlocksRead
		was := peeled(dec, tc.code.Geometry(), 1).Stats().BlocksRead
		if got != tc.hybrid || was != tc.was {
			t.Errorf("%s p=5 col 1: %d/%d reads, want %d/%d", tc.code.Name(), got, was, tc.hybrid, tc.was)
		}
	}
}

// TestEvenoddManyCandidates: EVENODD's S-diagonal cells belong to every
// diagonal chain, so its chains are long and many; the planner must still
// terminate, at p=11, with a plan that rebuilds the column.
func TestEvenoddManyCandidates(t *testing.T) {
	code := evenodd.MustNew(11)
	plan := layout.NewDecoder(code).ColumnPlan(columnsOf(0))
	if plan == nil {
		t.Fatal("no plan")
	}
	orig := encoded(code, 8, 2)
	s := orig.Clone()
	garble(s, rand.New(rand.NewSource(3)), 0)
	plan.Run(s)
	if !s.Equal(orig) {
		t.Fatal("wrong rebuild")
	}
}

// TestColumnPlanClimbsPastTheExhaustiveLimit: Code 5-6 at p=19 has 2^17 chain
// choices for a data column, past the exhaustive search; the climb still
// rebuilds the column and reads what core's planner reads.
func TestColumnPlanClimbsPastTheExhaustiveLimit(t *testing.T) {
	c := core.MustNew(19)
	plan := layout.NewDecoder(c).ColumnPlan(columnsOf(3))
	special, err := c.PlanHybridRecovery(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Stats().BlocksRead; got != special.Reads {
		t.Errorf("plan reads %d, core's planner %d", got, special.Reads)
	}
	orig := encoded(c, 8, 4)
	s := orig.Clone()
	garble(s, rand.New(rand.NewSource(5)), 3)
	plan.Run(s)
	if !s.Equal(orig) {
		t.Fatal("wrong rebuild")
	}
}
