package raid6

import (
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// WriteRange writes a contiguous run of logical data blocks starting at
// `logical`, batching parity updates per stripe: each touched parity block
// is read and written once regardless of how many of its covered data
// blocks changed — the partial-stripe write optimization (per-block
// read-modify-write pays 2 I/Os on a parity for every block under it).
// data's length must be a multiple of the block size. Stripes whose data
// cells are all overwritten are encoded without reading at all, as in
// WriteStripe. With a disk down each stripe's share of the range is one
// reconstruct-modify-write (see writeDegraded).
func (a *Array) WriteRange(logical int64, data []byte) error {
	if len(data)%a.blockSize != 0 {
		return fmt.Errorf("raid6: range of %d bytes is not block-aligned (%d)", len(data), a.blockSize)
	}
	nBlocks := int64(len(data) / a.blockSize)
	if nBlocks == 0 {
		return nil
	}
	perStripe := int64(len(a.dataCells))
	healthy := a.failedColumns().Len() == 0
	var blocks [][]byte // full-stripe view, allocated once for the whole range
	for done := int64(0); done < nBlocks; {
		stripe := (logical + done) / perStripe
		first := (logical + done) % perStripe
		count := perStripe - first
		if rem := nBlocks - done; rem < count {
			count = rem
		}
		chunk := data[done*int64(a.blockSize) : (done+count)*int64(a.blockSize)]
		if first == 0 && count == perStripe && healthy {
			// Full stripe: encode fresh, no reads.
			if blocks == nil {
				blocks = make([][]byte, perStripe)
			}
			for i := int64(0); i < perStripe; i++ {
				blocks[i] = chunk[i*int64(a.blockSize) : (i+1)*int64(a.blockSize)]
			}
			if err := a.WriteStripe(stripe, blocks); err != nil {
				return err
			}
		} else if err := a.writePartialStripe(stripe, first, chunk); err != nil {
			return err
		}
		done += count
	}
	return nil
}

// writePartialStripe writes a run of new blocks within one stripe: as delta
// writes (see foldRun) under the stripe's shared lock and, with a disk down or
// when those meet a degradable error, as one snapshot write under the
// exclusive one.
func (a *Array) writePartialStripe(stripe, first int64, data []byte) error {
	lk := a.disks.StripeLock(stripe)
	if a.failedColumns().Len() == 0 {
		lk.RLock()
		err := a.foldRun(stripe, first, data)
		lk.RUnlock()
		if err == nil || !vdisk.IsDegradable(err) {
			return err
		}
	}
	lk.Lock()
	defer lk.Unlock()
	return a.writeDegraded(stripe, first, data)
}

// foldRun applies a run of new blocks within one stripe: each data cell is
// swapped for its new contents, its delta is aggregated per parity, and each
// touched parity absorbs its aggregate with one Disk.Xor. The aggregates are
// kept and folded in chain order — diagonal parities share a disk, so the
// order decides that disk's injector draws and must not vary from run to run.
// A swap that fails ends the run, but what was swapped before it is folded
// all the same, and a fold that fails does not stop the others: the redo
// decodes the stripe from its parities, which must hold every delta they can.
// The first error is returned. Stripe held, shared.
func (a *Array) foldRun(stripe, first int64, data []byte) error {
	bs := int64(a.blockSize)
	// acc[ci] is the delta chain ci's parity has to absorb, rented when the
	// first changed cell reaches the chain.
	acc := make([][]byte, len(a.chains))
	defer func() {
		for _, d := range acc {
			if d != nil {
				bufpool.Put(d)
			}
		}
	}()
	delta := bufpool.Get(a.blockSize)
	defer bufpool.Put(delta)
	var err error
	for i := int64(0); i < int64(len(data))/bs; i++ {
		cell := a.dataCells[first+i]
		b := data[i*bs : (i+1)*bs]
		if err = a.swapCell(stripe, cell, b, delta); err != nil {
			break
		}
		xorblk.Xor(delta, b)
		for _, ci := range a.cascade[a.geom.Index(cell)] {
			if acc[ci] == nil {
				acc[ci] = bufpool.GetZero(a.blockSize)
			}
			xorblk.Xor(acc[ci], delta)
		}
	}
	for ci, d := range acc {
		if d == nil {
			continue
		}
		if ferr := a.xorCell(stripe, a.chains[ci].Parity, d); err == nil {
			err = ferr
		}
	}
	return err
}
