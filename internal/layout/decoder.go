package layout

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"code56/internal/xorblk"
)

// MaxColumns is the capacity of a Columns set: one more than the fault
// tolerance of every code in this repository, so a set can always show that
// it holds too many columns to decode.
const MaxColumns = 3

// Columns is a small set of column indices held in ascending order in a
// fixed array — a whole-column erasure pattern, and the key a Decoder caches
// its plans under. The zero value is the empty set.
type Columns struct {
	n   int
	col [MaxColumns]int
}

// Len returns the number of columns in the set.
//
//c56:noalloc
func (cs Columns) Len() int { return cs.n }

// At returns the i-th smallest column of the set.
//
//c56:noalloc
func (cs Columns) At(i int) int { return cs.col[i] }

// Has reports whether col is in the set.
//
//c56:noalloc
func (cs Columns) Has(col int) bool {
	for i := 0; i < cs.n; i++ {
		if cs.col[i] == col {
			return true
		}
	}
	return false
}

// With returns the set with col added. Adding to a full set panics: callers
// stop collecting once the set exceeds what any code can decode.
//
//c56:noalloc
func (cs Columns) With(col int) Columns {
	if cs.Has(col) {
		return cs
	}
	if cs.n == MaxColumns {
		panic(fmt.Sprintf("layout: more than %d columns in a set", MaxColumns))
	}
	i := cs.n
	for ; i > 0 && cs.col[i-1] > col; i-- {
		cs.col[i] = cs.col[i-1]
	}
	cs.col[i] = col
	cs.n++
	return cs
}

// Decoder is the decode-side twin of Encoder. For an erasure pattern it
// peels on coordinates only, once, and keeps the result as a Plan; running a
// plan on a stripe is one fused XorMulti fold per recovered cell, with no
// map, no zeroing pass and no allocation.
//
// Plans for whole-column patterns of up to FaultTolerance columns are
// compiled on first use and kept for the Decoder's lifetime, behind the
// Decoder's own lock. A plan is a pure function of the code and the column
// set, so nothing ever invalidates one, and a code of n columns has at most
// C(n,2)+n of them: there is no size, mode or option to set. A Decoder is
// safe for concurrent use.
type Decoder struct {
	code   Code
	geom   Geometry
	tol    int
	chains []Chain
	// order is the chain visiting order of one peeling pass: horizontal
	// chains first, otherwise as the code declares them. A horizontal solve
	// never touches the diagonal-parity disk, and for one lost column of
	// Code 5-6 it is the paper's single-erasure bound (p-2 reads, p-3 XORs).
	order []int
	// scratch pools *coverScratch (cover-pointer slices) across Runs.
	scratch sync.Pool

	mu sync.Mutex
	// plans holds the whole-column plans by slot (see ColumnPlan), nil until
	// compiled.
	plans []*Plan //c56:guardedby mu
}

// noPlan marks a column set whose peeling stalls (EVENODD under double
// column failure), so the verdict is cached like a plan.
var noPlan = new(Plan)

// NewDecoder prepares a decoder for the code. No plan is compiled yet.
func NewDecoder(code Code) *Decoder {
	g := code.Geometry()
	chains := code.Chains()
	slots, widest := 1, 0
	for k := 0; k < code.FaultTolerance(); k++ {
		slots *= g.Cols
	}
	d := &Decoder{
		code: code, geom: g, tol: code.FaultTolerance(), chains: chains,
		order: make([]int, 0, len(chains)),
		plans: make([]*Plan, slots),
	}
	for i := range chains {
		widest = max(widest, len(chains[i].Covers))
		if chains[i].Kind == ParityH {
			d.order = append(d.order, i)
		}
	}
	for i := range chains {
		if chains[i].Kind != ParityH {
			d.order = append(d.order, i)
		}
	}
	d.scratch.New = func() any { return &coverScratch{covers: make([][]byte, 0, widest)} }
	return d
}

// Step is one entry of a plan's schedule: Missing is recovered as the XOR of
// Sources, the other members of chain number Chain (an index into
// Code.Chains). Every source is intact or recovered by an earlier step.
type Step struct {
	Missing Coord
	Chain   int
	Sources []Coord
}

// ColumnRun is a stretch of adjacent rows of one column: N cells starting at
// Row. They are contiguous on the disk holding the column, so one ranged
// read fetches them.
type ColumnRun struct{ Col, Row, N int }

// Plan is the compiled recovery of one erasure pattern.
type Plan struct {
	dec   *Decoder
	steps []planStep
	cells []int32 // every step's sources, concatenated (Geometry.Index values)
	// stats is what running the schedule costs: XORs and Recovered summed
	// over the steps, BlocksRead the distinct cells they read.
	stats DecodeStats
	read  []uint64 // bitset over cells: the distinct cells read
	stuck int      // lost cells peeling cannot reach; 0 for a complete plan

	// Whole-column plans also hold their fold schedule (fold.go): folds lands
	// each step's surviving sources on the accumulator of the cell it recovers,
	// accOf maps a lost cell to its accumulator (-1 for any other cell), and
	// unfed lists the accumulators of steps with no surviving source (a
	// two-member chain, both members lost).
	folds []ColumnFold
	accOf []int32
	unfed []int32

	// And, for each lost cell, by accumulator, the surviving cells whose XOR
	// equals it (see substitute): what a degraded read wants and a rebuild never
	// does, so compiled when the first one asks.
	perCell atomic.Pointer[[][]ColumnFold]
}

type planStep struct {
	missing, chain int32
	lo, hi         int32 // sources are cells[lo:hi]
}

// ColumnPlan returns the plan recovering every cell of the given columns,
// compiling it on first use. It returns nil when there is none: an empty or
// out-of-range set, more columns than the code tolerates, or a pattern
// peeling cannot solve.
//
//c56:noalloc
func (d *Decoder) ColumnPlan(cols Columns) *Plan {
	if cols.n == 0 || cols.n > d.tol || cols.col[0] < 0 || cols.col[cols.n-1] >= d.geom.Cols {
		return nil
	}
	// A set shorter than the tolerance repeats its last column, which no
	// ascending set of full length can do.
	slot := 0
	for k := 0; k < d.tol; k++ {
		slot = slot*d.geom.Cols + cols.col[min(k, cols.n-1)]
	}
	d.mu.Lock()
	p := d.plans[slot]
	if p == nil {
		p = d.compileColumns(cols) //lint:allow noalloc a column set is compiled once per decoder; every later call finds the plan
		d.plans[slot] = p
	}
	d.mu.Unlock()
	if p == noPlan {
		return nil
	}
	return p
}

// compileColumns compiles the plan for cols, or returns noPlan.
func (d *Decoder) compileColumns(cols Columns) *Plan {
	lost := make([]bool, d.geom.Elements())
	for i := 0; i < cols.n; i++ {
		for r := 0; r < d.geom.Rows; r++ {
			lost[d.geom.Index(Coord{Row: r, Col: cols.col[i]})] = true
		}
	}
	p := d.compile(lost, cols.n*d.geom.Rows)
	if p.stuck > 0 {
		return noPlan
	}
	p.schedule(cols)
	return p
}

// Compile peels the erasure set and returns its plan, complete or not (see
// Complete). Cell-level patterns are not cached: the whole-column ones, which
// are what a failed disk produces, come from ColumnPlan.
func (d *Decoder) Compile(es ErasureSet) *Plan {
	lost := make([]bool, d.geom.Elements())
	outside := 0
	for c, erased := range es {
		if erased && d.geom.Contains(c) {
			lost[d.geom.Index(c)] = true
		} else {
			outside++ // no chain reaches a cell outside the stripe
		}
	}
	p := d.compile(lost, len(es)-outside)
	p.stuck += outside
	return p
}

// Reconstruct recovers the erasure set by peeling and, if peeling gets stuck,
// by Gaussian elimination on the cells that remain. It is the general-purpose
// entry point of the RAID-6 driver for whatever its column plans do not serve.
// It mutates s in place and removes recovered coordinates from es.
func (d *Decoder) Reconstruct(s *Stripe, es ErasureSet) (DecodeStats, error) {
	plan := d.Compile(es)
	st, err := plan.apply(s, es)
	if err == nil {
		return st, nil
	}
	st2, err := solveDecode(d.code, s, es, plan.read)
	st.XORs += st2.XORs
	st.BlocksRead = popcount(plan.read) // both phases' reads, each cell once
	st.Recovered += st2.Recovered
	st.UsedElimination = true
	return st, err
}

// compile peels: pass after pass over the chains in d.order, every chain with
// exactly one lost member recovers it, until nothing is lost or a pass makes
// no progress. For two lost columns of Code 5-6 the schedule is Algorithm 1's
// two recovery chains. lost is consumed.
func (d *Decoder) compile(lost []bool, nLost int) *Plan {
	g := d.geom
	p := &Plan{dec: d, read: make([]uint64, (g.Elements()+63)/64)}
	for progress := true; nLost > 0 && progress; {
		progress = false
		for _, ci := range d.order {
			ch := &d.chains[ci]
			missing, ok := soleLost(g, ch, lost)
			if !ok {
				continue
			}
			lo := len(p.cells)
			if m := g.Index(ch.Parity); m != missing {
				p.cells = append(p.cells, int32(m))
			}
			for _, c := range ch.Covers {
				if m := g.Index(c); m != missing {
					p.cells = append(p.cells, int32(m))
				}
			}
			p.steps = append(p.steps, planStep{missing: int32(missing), chain: int32(ci), lo: int32(lo), hi: int32(len(p.cells))})
			if n := len(p.cells) - lo; n > 1 {
				p.stats.XORs += n - 1
			}
			lost[missing] = false
			nLost--
			progress = true
		}
	}
	for _, m := range p.cells {
		p.read[m/64] |= 1 << (m % 64)
	}
	p.stats.BlocksRead = popcount(p.read)
	p.stats.Recovered = len(p.steps)
	p.stuck = nLost
	return p
}

// soleLost returns the index of the chain's single lost member, if exactly
// one member is lost.
func soleLost(g Geometry, ch *Chain, lost []bool) (int, bool) {
	missing, count := 0, 0
	if m := g.Index(ch.Parity); lost[m] {
		missing, count = m, 1
	}
	for _, c := range ch.Covers {
		if m := g.Index(c); lost[m] {
			if count++; count > 1 {
				return 0, false
			}
			missing = m
		}
	}
	return missing, count == 1
}

// substitute derives every lost cell's surviving sources — a step's sources
// that were themselves recovered are replaced by their own, and a cell met
// twice cancels — as the fold schedule of those cells onto one accumulator.
func (p *Plan) substitute() [][]ColumnFold {
	g := p.dec.geom
	words := len(p.read)
	folds := make([][]ColumnFold, len(p.steps))
	exprs := make([]uint64, len(p.steps)*words)
	for _, st := range p.steps {
		acc := int(p.accOf[st.missing])
		expr := exprs[acc*words : (acc+1)*words]
		for _, m := range p.cells[st.lo:st.hi] {
			if j := int(p.accOf[m]); j >= 0 {
				for w, bitsOf := range exprs[j*words : (j+1)*words] {
					expr[w] ^= bitsOf
				}
			} else {
				expr[m/64] ^= 1 << (m % 64)
			}
		}
		var terms []foldTerm
		for m := 0; m < g.Elements(); m++ {
			if bitGet(expr, m) {
				terms = append(terms, foldTerm{cell: int32(m)})
			}
		}
		folds[acc], _ = buildFolds(g, terms, 1)
	}
	return folds
}

// Complete reports whether the plan recovers every cell of its pattern. An
// incomplete plan recovers what peeling reaches; Gaussian elimination
// (SolveDecode) has to take the rest.
func (p *Plan) Complete() bool { return p.stuck == 0 }

// Stats returns what one Run of the plan costs, in the paper's units.
func (p *Plan) Stats() DecodeStats { return p.stats }

// Steps returns the schedule in execution order, for inspection.
func (p *Plan) Steps() []Step {
	g := p.dec.geom
	out := make([]Step, len(p.steps))
	for i, st := range p.steps {
		out[i] = Step{Missing: g.CoordOf(int(st.missing)), Chain: int(st.chain)}
		for _, m := range p.cells[st.lo:st.hi] {
			out[i].Sources = append(out[i].Sources, g.CoordOf(int(m)))
		}
	}
	return out
}

// Sources returns the surviving cells whose XOR equals the lost cell c, in
// column-major order, or nil if c is not a lost cell of a whole-column plan.
// It is SourceRuns spelled out cell by cell, for inspection.
func (p *Plan) Sources(c Coord) []Coord {
	var out []Coord
	for _, cf := range p.SourceRuns(c) {
		for _, run := range cf.Runs {
			for k := 0; k < run.N; k++ {
				out = append(out, Coord{Row: run.Row + k, Col: cf.Col})
			}
		}
	}
	return out
}

// SourceRuns returns, for a lost cell c of a whole-column plan, the
// surviving cells whose XOR equals it — its stretch of the recovery chains —
// as a fold schedule onto one accumulator: column runs, one ranged disk read
// each, which is what a degraded read of c runs. It returns nil for any other
// cell. The schedules are compiled on first use, under the decoder's lock;
// the slice belongs to the plan.
//
//c56:noalloc
func (p *Plan) SourceRuns(c Coord) []ColumnFold {
	if p.accOf == nil || !p.dec.geom.Contains(c) {
		return nil
	}
	acc := p.accOf[p.dec.geom.Index(c)]
	if acc < 0 {
		return nil
	}
	t := p.perCell.Load()
	if t == nil {
		p.dec.mu.Lock()
		if t = p.perCell.Load(); t == nil {
			folds := p.substitute() //lint:allow noalloc a plan's per-cell schedules are compiled once; every later call finds them
			t = &folds
			p.perCell.Store(t)
		}
		p.dec.mu.Unlock()
	}
	return (*t)[acc]
}

// Run executes the schedule on s: every lost cell the plan reaches is
// overwritten with its recovered contents, whatever it held. It returns the
// block XOR count, Stats().XORs.
//
//c56:noalloc
func (p *Plan) Run(s *Stripe) int {
	if s.Geom != p.dec.geom {
		panic(fmt.Sprintf("layout: %dx%d stripe for a %dx%d code", s.Geom.Rows, s.Geom.Cols, p.dec.geom.Rows, p.dec.geom.Cols))
	}
	cs := p.dec.scratch.Get().(*coverScratch)
	for i := range p.steps {
		st := &p.steps[i]
		covers := cs.covers[:0]
		for _, m := range p.cells[st.lo:st.hi] {
			covers = append(covers, s.blocks[m]) //lint:allow noalloc pooled scratch is pre-sized to the widest chain, append never grows it
		}
		xorblk.XorMulti(s.blocks[st.missing], covers...)
	}
	cs.covers = cs.covers[:0]
	p.dec.scratch.Put(cs)
	return p.stats.XORs
}

// apply runs the plan compiled from es on s and removes what it recovered
// from es.
func (p *Plan) apply(s *Stripe, es ErasureSet) (DecodeStats, error) {
	p.Run(s)
	for _, st := range p.steps {
		delete(es, p.dec.geom.CoordOf(int(st.missing)))
	}
	if p.stuck > 0 {
		return p.stats, fmt.Errorf("%w: peeling stuck with %d cells missing (%s)", ErrUnrecoverable, p.stuck, p.dec.code.Name())
	}
	return p.stats, nil
}

func popcount(bs []uint64) int {
	n := 0
	for _, w := range bs {
		n += bits.OnesCount64(w)
	}
	return n
}
