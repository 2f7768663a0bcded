package layout

import (
	"cmp"
	"slices"

	"code56/internal/xorblk"
)

// A fold schedule says how to evaluate parity chains over the disks of a
// stripe: which surviving cells to read, as column runs, and which accumulator
// — one block a chain, side by side in one buffer — each lands on. It is
// compiled once, from coordinates only, reads every cell it names exactly once
// with one disk call a run of adjacent cells, and raid6's one executor (fold)
// runs it for conversion, rebuild, degraded reads and scrub's check alike
// (DESIGN §4.20).

// FoldRun is one stretch of a column's part in a schedule, and one lane of the
// disk call that reads it (vdisk.Disk.ReadFold): the N cells from Row on land
// on the N consecutive accumulators from Acc on, one each. First says they are
// their accumulators' first contributors in the order the schedule runs —
// columns ascending, a column's cells in row order, each onto the runs that
// take it: stored there, where later ones are XORed in, so no accumulator is
// zeroed and a chain of n members costs n-1 XORs, the planner's count.
type FoldRun struct {
	Row, N, Acc int
	First       bool
}

// ColumnFold is one column's part in a schedule. Each maximal run of the
// column's cells it names is read with one disk call whose lanes are the runs
// that take it, one or, where a cell feeds two chains or adjacent cells feed
// one, several; the runs come in row order, so a read's runs are consecutive
// and the first run of the next starts past the rows they take. Reads lists
// those reads, or is nil when they are the runs themselves, one taker a cell.
type ColumnFold struct {
	Col   int
	Reads []ColumnRun
	Runs  []FoldRun
}

// foldTerm is one (cell, accumulator) pair of a schedule under construction.
type foldTerm struct{ cell, acc int32 }

// buildFolds lays the terms out column by column. Within a column a run
// continues while the next row feeds the next accumulator, and breaks where
// first contributors meet later ones. First is given lane by lane, a column's
// lanes as they start; for every code here that is also the order a
// block-by-block walk meets them in, which TestFoldSchedules holds each
// schedule to. It also reports which of the accs accumulators the terms feed.
func buildFolds(g Geometry, terms []foldTerm, accs int) ([]ColumnFold, []bool) {
	slices.SortFunc(terms, func(a, b foldTerm) int {
		ca, cb := g.CoordOf(int(a.cell)), g.CoordOf(int(b.cell))
		return cmp.Or(cmp.Compare(ca.Col, cb.Col), cmp.Compare(ca.Row, cb.Row), cmp.Compare(a.acc, b.acc))
	})
	fed := make([]bool, accs)
	var out []ColumnFold
	for lo := 0; lo < len(terms); {
		cf := ColumnFold{Col: g.CoordOf(int(terms[lo].cell)).Col}
		var lanes []FoldRun
		for ; lo < len(terms) && g.CoordOf(int(terms[lo].cell)).Col == cf.Col; lo++ {
			row, acc := g.CoordOf(int(terms[lo].cell)).Row, int(terms[lo].acc)
			if k := len(cf.Reads) - 1; k < 0 || cf.Reads[k].Row+cf.Reads[k].N < row {
				cf.Reads = append(cf.Reads, ColumnRun{Col: cf.Col, Row: row, N: 1})
			} else if cf.Reads[k].Row+cf.Reads[k].N == row {
				cf.Reads[k].N++
			}
			k := 0
			for k < len(lanes) && (lanes[k].Row+lanes[k].N != row || lanes[k].Acc+lanes[k].N != acc) {
				k++
			}
			if k == len(lanes) {
				lanes = append(lanes, FoldRun{Row: row, Acc: acc})
			}
			lanes[k].N++
		}
		for _, l := range lanes {
			for k := 0; k < l.N; k++ {
				first := !fed[l.Acc+k]
				fed[l.Acc+k] = true
				if n := len(cf.Runs) - 1; k > 0 && cf.Runs[n].First == first {
					cf.Runs[n].N++
				} else {
					cf.Runs = append(cf.Runs, FoldRun{Row: l.Row + k, N: 1, Acc: l.Acc + k, First: first})
				}
			}
		}
		// In row order: a block's takers are different accumulators, so the
		// order they are landed in within a row cannot change a First.
		slices.SortStableFunc(cf.Runs, func(a, b FoldRun) int { return cmp.Compare(a.Row, b.Row) })
		if len(cf.Runs) == len(cf.Reads) {
			cf.Reads = nil // every cell has one taker: the runs are the reads
		}
		out = append(out, cf)
	}
	return out, fed
}

// schedule compiles a whole-column plan's fold schedule: accumulator k*Rows+r
// is the lost cell in row r of the k-th lost column, so the buffer, once
// finished, is the lost columns themselves, ready to be written.
func (p *Plan) schedule(cols Columns) {
	g := p.dec.geom
	p.accOf = make([]int32, g.Elements())
	for m := range p.accOf {
		p.accOf[m] = -1
	}
	for k := 0; k < cols.n; k++ {
		for r := 0; r < g.Rows; r++ {
			p.accOf[g.Index(Coord{Row: r, Col: cols.col[k]})] = int32(k*g.Rows + r)
		}
	}
	var terms []foldTerm
	for _, st := range p.steps {
		for _, m := range p.cells[st.lo:st.hi] {
			if p.accOf[m] < 0 {
				terms = append(terms, foldTerm{cell: m, acc: p.accOf[st.missing]})
			}
		}
	}
	var fed []bool
	p.folds, fed = buildFolds(g, terms, len(p.steps))
	for a, ok := range fed {
		if !ok {
			p.unfed = append(p.unfed, int32(a))
		}
	}
}

// Folds returns a whole-column plan's fold schedule: the surviving members of
// the chains its steps use, each landing on the accumulator of the lost cell
// its chain recovers (see schedule); Finish turns the folded buffer into the
// lost columns. The slice belongs to the plan.
//
//c56:noalloc
func (p *Plan) Folds() []ColumnFold { return p.folds }

// Finish completes a buffer the plan's Folds were run on: step by step, a
// lost cell is its chain's accumulator XOR the lost cells recovered before it
// — the schedule as peeling found it, p-3 XORs a block for Code 5-6, not the
// substituted form SourceRuns spells out. acc holds one block a lost cell.
//
//c56:noalloc
func (p *Plan) Finish(acc []byte) {
	bs := len(acc) / len(p.steps)
	for _, a := range p.unfed {
		clear(acc[int(a)*bs : int(a+1)*bs])
	}
	for _, st := range p.steps {
		d := int(p.accOf[st.missing])
		for _, m := range p.cells[st.lo:st.hi] {
			if a := int(p.accOf[m]); a >= 0 {
				xorblk.Xor(acc[d*bs:(d+1)*bs], acc[a*bs:(a+1)*bs])
			}
		}
	}
}

// Syndromes compiles the schedule that checks a stripe: every member of every
// chain, parity included and no column left out, lands on accumulator number
// chain (an index into Code.Chains), so a consistent stripe folds to an
// all-zero buffer.
func (d *Decoder) Syndromes() []ColumnFold {
	var terms []foldTerm
	for i := range d.chains {
		terms = append(terms, foldTerm{cell: int32(d.geom.Index(d.chains[i].Parity)), acc: int32(i)})
		for _, c := range d.chains[i].Covers {
			terms = append(terms, foldTerm{cell: int32(d.geom.Index(c)), acc: int32(i)})
		}
	}
	folds, _ := buildFolds(d.geom, terms, len(d.chains))
	return folds
}
