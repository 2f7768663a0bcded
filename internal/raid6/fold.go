package raid6

import (
	"errors"
	"fmt"
	"sync"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/vdisk"
)

// fold is the one place parity chains are evaluated over the disks (DESIGN
// §4.20): it runs stripe lo+j's schedule r.scheds[j], j < k, onto the j-th of
// k equal parts of acc, one block an accumulator. Each disk's lanes for all k
// stripes go to Disk.ReadFold, one call per maximal run of adjacent rows, so
// a read ending one stripe and one beginning the next are one call, and every
// block is read once and lands, in L1, on each of its takers. Disks go in
// index order, on a rotated array not the column order First assumes, so
// there acc is cleared and every lane XORs in. The first disk error ends it,
// acc then unspecified. Stripes held, exclusive: cells of one moment.
//
//c56:noalloc
func (a *Array) fold(lo int64, k int, r *run, acc []byte) error {
	rows, stride := a.geom.Rows, len(acc)/k/a.blockSize
	if a.rotate {
		clear(acc)
	}
	for d := 0; d < a.geom.Cols; d++ {
		lanes := r.lanes[:0]
		for j, folds := range r.scheds[:k] {
			col := a.colOnDisk(lo+int64(j), d)
			for i := range folds {
				switch {
				case folds[i].Col != col:
				case k == 1 && !a.rotate:
					lanes = folds[i].Runs // a run of one stripe reads its schedule as it is
				default:
					for _, l := range folds[i].Runs {
						l.Row, l.Acc, l.First = l.Row+j*rows, l.Acc+j*stride, l.First && !a.rotate
						lanes = append(lanes, l) //lint:allow noalloc the pooled list grows to the widest run once
					}
					r.lanes = lanes
				}
			}
		}
		for i := 0; i < len(lanes); {
			h, end := i+1, lanes[i].Row+lanes[i].N
			for ; h < len(lanes) && lanes[h].Row <= end; h++ {
				end = max(end, lanes[h].Row+lanes[h].N)
			}
			if err := a.disks.Disk(d).ReadFold(lo*int64(rows), acc, lanes[i:h]); err != nil {
				return err
			}
			i = h
		}
	}
	return nil
}

// A run is a run of stripes' lost columns, plans and schedules, stripe lo+j's
// at j, and fold's lane list; pooled, not cleared on the stack for each call.
type run struct {
	lost   [parallel.MaxBatch]layout.Columns
	plans  [parallel.MaxBatch]*layout.Plan
	scheds [parallel.MaxBatch][]layout.ColumnFold
	lanes  []layout.FoldRun
}

var runs = sync.Pool{New: func() any { return new(run) }}

// errNoPlan is RebuildColumnsHeld's answer for a column set peeling cannot
// solve, or one beyond the code's tolerance.
var errNoPlan = errors.New("raid6: no recovery plan for these columns")

// RebuildColumnsHeld recomputes the logical columns cols of stripe st from
// their compiled recovery plan and writes them: the plan's fold schedule run
// over the surviving columns it names, no others; its steps finished on the
// accumulators in memory; and the lost columns written with one disk call a
// column. It has no fallback: an unreadable source is returned as the disk's
// error, nothing written, and the caller goes on with RepairColumnsHeld — the
// rebuild does, and so does the online migrator, whose conversion of a stripe
// is this rebuild of column p-1 under the hold that also sets the stripe's
// bit. Stripe held, exclusive.
//
//c56:noalloc
func (a *Array) RebuildColumnsHeld(st int64, cols layout.Columns) error {
	return a.rebuildRun(st, st+1, cols, nil)
}

// rebuildRun is RebuildColumnsHeld of stripes [lo, hi) with one fold, stripe
// st's lost columns cols or, given disks, those the disks hold in st.
//
//c56:noalloc
func (a *Array) rebuildRun(lo, hi int64, cols layout.Columns, disks []int) error {
	r, k := runs.Get().(*run), int(hi-lo)
	defer runs.Put(r)
	for j := range k {
		if r.lost[j] = cols; disks != nil {
			r.lost[j] = a.columnsOn(lo+int64(j), disks)
		}
		if r.plans[j] = a.dec.ColumnPlan(r.lost[j]); r.plans[j] == nil {
			return errNoPlan
		}
		r.scheds[j] = r.plans[j].Folds()
	}
	colBytes := a.geom.Rows * a.blockSize
	stride := r.lost[0].Len() * colBytes
	acc := bufpool.Get(k * stride)
	defer bufpool.Put(acc)
	if err := a.fold(lo, k, r, acc); err != nil {
		return err
	}
	for j := range k {
		st, part := lo+int64(j), acc[j*stride:(j+1)*stride]
		r.plans[j].Finish(part)
		for i := 0; i < r.lost[j].Len(); i++ {
			col := r.lost[j].At(i)
			if err := a.diskFor(st, col).WriteBlocks(a.blockAddr(st, layout.Coord{Col: col}), part[i*colBytes:(i+1)*colBytes]); err != nil {
				return err
			}
		}
	}
	return nil
}

// columnsOn returns the logical columns the given disks hold in stripe st.
//
//c56:noalloc
func (a *Array) columnsOn(st int64, disks []int) layout.Columns {
	var cols layout.Columns
	for _, d := range disks {
		cols = cols.With(a.colOnDisk(st, d))
	}
	return cols
}

// rebuildDisks rebuilds the given disks' cells of stripes [lo, hi), held as
// one run (LockRun), with one fold; if a source is unreadable, or a stripe's
// columns have no plan, stripe by stripe, a stripe that fails again loaded
// and decoded on the exact erasure set (RepairColumnsHeld).
//
//c56:noalloc
func (a *Array) rebuildDisks(lo, hi int64, disks []int) error {
	a.disks.LockRun(lo, hi)
	defer a.disks.UnlockRun(lo, hi)
	err := a.rebuildRun(lo, hi, layout.Columns{}, disks)
	if err == nil || !vdisk.IsDegradable(err) && !errors.Is(err, errNoPlan) {
		return err
	}
	for st := lo; st < hi; st++ {
		cols := a.columnsOn(st, disks)
		err := a.RebuildColumnsHeld(st, cols)
		if err != nil && (vdisk.IsDegradable(err) || errors.Is(err, errNoPlan)) {
			_, err = a.RepairColumnsHeld(st, cols) //lint:allow noalloc a rebuild around further damage decodes the exact erasure set; the plan is the steady state
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// RepairColumnsHeld is RebuildColumnsHeld's fallback: it loads stripe st, runs
// the general decoder over the logical columns cols plus every cell the load
// could not read, and writes cols; then it rewrites the other cells it decoded
// on disks that are up — a bad sector, a transient that outlived the retries,
// a block not yet rebuilt — which heals them, and returns how many. Stripe
// held, exclusive: nothing can fall between the decode and the rewrites.
func (a *Array) RepairColumnsHeld(st int64, cols layout.Columns) (healed int, err error) {
	s, es, err := a.loadStripe(st, nil)
	if err != nil {
		return 0, err
	}
	defer a.stripes.Put(s)
	var heal []layout.Coord // in address order, not es's, so a seeded fault run replays
	for j := 0; j < a.geom.Cols; j++ {
		for r := 0; r < a.geom.Rows; r++ {
			if c := (layout.Coord{Row: r, Col: j}); es[c] && !cols.Has(j) && !a.diskFor(st, j).Failed() {
				heal = append(heal, c)
			}
		}
	}
	if es == nil {
		es = make(layout.ErasureSet, cols.Len()*a.geom.Rows)
	}
	for i := 0; i < cols.Len(); i++ {
		for r := 0; r < a.geom.Rows; r++ {
			es[layout.Coord{Row: r, Col: cols.At(i)}] = true
		}
	}
	if _, err := a.dec.Reconstruct(s, es); err != nil {
		return 0, fmt.Errorf("%w: stripe %d: %w", ErrTooManyFailures, st, err)
	}
	for i := 0; i < cols.Len(); i++ {
		if err := a.writeColumn(st, cols.At(i), s); err != nil {
			return 0, err
		}
	}
	for _, c := range heal {
		if err := a.writeCell(st, c, s.Block(c)); err != nil {
			return healed, err
		}
		healed++
	}
	return healed, nil
}
