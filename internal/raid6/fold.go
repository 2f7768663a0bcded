package raid6

import (
	"errors"
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/xorblk"
)

// fold is the one place parity chains are evaluated over the disks (DESIGN
// §4.20): it runs a compiled fold schedule on stripe st, landing every run on
// its accumulators in acc, one block each. A column whose runs are what lies
// contiguous on the disk is folded from where it lies — first contributors read
// in, the rest XORed in by Disk.ReadXor, which alone decides whether its store
// folds in place — and a column whose cells have two takers is read once into a
// pooled column of scratch and folded from there: each block is read once, each
// run is one disk call. The first disk error ends it, acc then unspecified.
// Stripe held by the caller, exclusive: the cells must be of one moment.
//
//c56:noalloc
func (a *Array) fold(st int64, folds []layout.ColumnFold, acc []byte) error {
	bs, base := a.blockSize, st*int64(a.geom.Rows)
	var scratch []byte
	var err error
	for i := 0; i < len(folds) && err == nil; i++ {
		cf := &folds[i]
		disk := a.diskFor(st, cf.Col)
		if cf.Reads != nil && scratch == nil {
			scratch = bufpool.Get(a.geom.Rows * bs)
		}
		for k := 0; k < len(cf.Reads) && err == nil; k++ {
			rd := &cf.Reads[k]
			err = disk.ReadBlocks(base+int64(rd.Row), scratch[rd.Row*bs:(rd.Row+rd.N)*bs])
		}
		for k := 0; k < len(cf.Runs) && err == nil; k++ {
			r := &cf.Runs[k]
			dst := acc[r.Acc*bs : (r.Acc+r.N)*bs]
			switch {
			case cf.Reads != nil && r.First:
				copy(dst, scratch[r.Row*bs:(r.Row+r.N)*bs])
			case cf.Reads != nil:
				xorblk.Xor(dst, scratch[r.Row*bs:(r.Row+r.N)*bs])
			case r.First:
				err = disk.ReadBlocks(base+int64(r.Row), dst)
			default:
				err = disk.ReadXor(base+int64(r.Row), dst)
			}
		}
	}
	if scratch != nil {
		bufpool.Put(scratch)
	}
	return err
}

// errNoPlan is RebuildColumnsHeld's answer for a column set peeling cannot
// solve, or one beyond the code's tolerance.
var errNoPlan = errors.New("raid6: no recovery plan for these columns")

// RebuildColumnsHeld recomputes the logical columns cols of stripe st from
// their compiled recovery plan and writes them: the plan's fold schedule run
// over the surviving columns it names, no others; its steps finished on the
// accumulators in memory; and the buffer, then the lost columns, written with
// one disk call a column. It has no fallback: an unreadable source is returned
// as the disk's error, nothing written, for the caller to serve its own way —
// the online migrator, whose conversion of a stripe is this rebuild of column
// p-1 under the hold that also sets the stripe's bit. Stripe held, exclusive.
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
	if err == nil || !isDegradable(err) && !errors.Is(err, errNoPlan) {
		return err
	}
	s, es, err := a.loadStripe(st)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	return a.reconstructColumns(st, s, es, cols) //lint:allow noalloc a rebuild around further damage decodes the exact erasure set; the plan is the steady state
}

// reconstructColumns is rebuildStripe's fallback: the general decoder over
// the rebuilt columns plus whatever else loading found unreadable (es, which
// may be nil).
func (a *Array) reconstructColumns(st int64, s *layout.Stripe, es layout.ErasureSet, cols layout.Columns) error {
	if es == nil {
		es = make(layout.ErasureSet, cols.Len()*a.geom.Rows)
	}
	for i := 0; i < cols.Len(); i++ {
		for r := 0; r < a.geom.Rows; r++ {
			es[layout.Coord{Row: r, Col: cols.At(i)}] = true
		}
	}
	if _, err := a.dec.Reconstruct(s, es); err != nil {
		return fmt.Errorf("%w: stripe %d: %w", ErrTooManyFailures, st, err)
	}
	for i := 0; i < cols.Len(); i++ {
		if err := a.writeColumn(st, cols.At(i), s); err != nil {
			return err
		}
	}
	return nil
}
