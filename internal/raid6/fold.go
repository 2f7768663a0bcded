package raid6

import (
	"errors"
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/vdisk"
)

// fold is the one place parity chains are evaluated over the disks (DESIGN
// §4.20): it runs a compiled fold schedule on stripe st, landing every run on
// its accumulators in acc, one block each. Each distinct read of a column is
// one Disk.ReadFold whose lanes are the runs that take it, so every block is
// read once and lands, while it is in L1, on each of its takers, and the store
// alone decides whether it is folded where it lies. The runs of a read are
// consecutive in the column's schedule, and one starting past the rows taken
// so far opens the next read. The first disk error ends it, acc then
// unspecified. Stripe held by the caller, exclusive: the cells must be of one
// moment.
//
//c56:noalloc
func (a *Array) fold(st int64, folds []layout.ColumnFold, acc []byte) error {
	base := st * int64(a.geom.Rows)
	for i := range folds {
		runs, disk := folds[i].Runs, a.diskFor(st, folds[i].Col)
		for lo := 0; lo < len(runs); {
			hi, end := lo+1, runs[lo].Row+runs[lo].N
			for ; hi < len(runs) && runs[hi].Row <= end; hi++ {
				end = max(end, runs[hi].Row+runs[hi].N)
			}
			if err := disk.ReadFold(base, acc, runs[lo:hi]); err != nil {
				return err
			}
			lo = hi
		}
	}
	return nil
}

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
	plan := a.dec.ColumnPlan(cols)
	if plan == nil {
		return errNoPlan
	}
	colBytes := a.geom.Rows * a.blockSize
	acc := bufpool.Get(cols.Len() * colBytes)
	defer bufpool.Put(acc)
	if err := a.fold(st, plan.Folds(), acc); err != nil {
		return err
	}
	plan.Finish(acc)
	for i := 0; i < cols.Len(); i++ {
		col := cols.At(i)
		if err := a.diskFor(st, col).WriteBlocks(a.blockAddr(st, layout.Coord{Col: col}), acc[i*colBytes:(i+1)*colBytes]); err != nil {
			return err
		}
	}
	return nil
}

// rebuildStripe reconstructs the given disks' cells of one stripe from the
// plan of the columns they hold; if a source is unreadable too, or the columns
// have no plan, it loads the stripe and the full decoder takes the exact
// erasure set.
//
//c56:noalloc
func (a *Array) rebuildStripe(st int64, disks []int) error {
	var cols layout.Columns
	for _, d := range disks {
		cols = cols.With(a.colOnDisk(st, d))
	}
	lk := a.disks.StripeLock(st)
	lk.Lock()
	defer lk.Unlock()
	err := a.RebuildColumnsHeld(st, cols)
	if err == nil || !vdisk.IsDegradable(err) && !errors.Is(err, errNoPlan) {
		return err
	}
	_, err = a.RepairColumnsHeld(st, cols) //lint:allow noalloc a rebuild around further damage decodes the exact erasure set; the plan is the steady state
	return err
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
