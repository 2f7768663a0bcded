package raid6

import (
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/xorblk"
)

// WriteRange writes a contiguous run of logical data blocks starting at
// `logical`, batching parity updates per stripe: each touched parity block
// is read and written once regardless of how many of its covered data
// blocks changed — the partial-stripe write optimization (per-block
// read-modify-write pays 2 I/Os on a parity for every block under it).
// data's length must be a multiple of the block size. Stripes whose data
// cells are all overwritten are encoded without reading at all, as in
// WriteStripe. The array must be healthy; degraded ranges fall back to
// per-block writes.
func (a *Array) WriteRange(logical int64, data []byte) error {
	if len(data)%a.blockSize != 0 {
		return fmt.Errorf("raid6: range of %d bytes is not block-aligned (%d)", len(data), a.blockSize)
	}
	nBlocks := int64(len(data) / a.blockSize)
	if nBlocks == 0 {
		return nil
	}
	if a.failedColumns().Len() > 0 {
		for i := int64(0); i < nBlocks; i++ {
			if err := a.WriteBlock(logical+i, data[i*int64(a.blockSize):(i+1)*int64(a.blockSize)]); err != nil {
				return err
			}
		}
		return nil
	}

	perStripe := int64(len(a.dataCells))
	var blocks [][]byte // full-stripe view, allocated once for the whole range
	for done := int64(0); done < nBlocks; {
		stripe := (logical + done) / perStripe
		first := (logical + done) % perStripe
		count := perStripe - first
		if rem := nBlocks - done; rem < count {
			count = rem
		}
		chunk := data[done*int64(a.blockSize) : (done+count)*int64(a.blockSize)]
		if first == 0 && count == perStripe {
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

// writePartialStripe applies a run of new blocks within one stripe,
// aggregating the delta per parity cell before touching it.
func (a *Array) writePartialStripe(stripe, first int64, data []byte) error {
	count := int64(len(data) / a.blockSize)
	// Aggregate deltas per parity cell, cascading through chains that
	// cover other parities (RDP, HDP). The per-parity accumulators are
	// rented from bufpool and returned once flushed.
	deltas := make(map[layout.Coord][]byte, len(a.chains))
	defer func() {
		for _, d := range deltas {
			bufpool.Put(d)
		}
	}()
	var propagate func(at layout.Coord, delta []byte)
	propagate = func(at layout.Coord, delta []byte) {
		for _, ci := range a.covering[a.geom.Index(at)] {
			p := a.chains[ci].Parity
			acc, ok := deltas[p]
			if !ok {
				acc = bufpool.GetZero(a.blockSize)
				deltas[p] = acc
			}
			xorblk.Xor(acc, delta)
			propagate(p, delta)
		}
	}

	old := bufpool.Get(a.blockSize)
	defer bufpool.Put(old)
	delta := bufpool.Get(a.blockSize)
	defer bufpool.Put(delta)
	for i := int64(0); i < count; i++ {
		cell := a.dataCells[first+i]
		b := data[i*int64(a.blockSize) : (i+1)*int64(a.blockSize)]
		if err := a.readCell(stripe, cell, old); err != nil {
			return err
		}
		xorblk.XorInto(delta, old, b)
		if err := a.writeCell(stripe, cell, b); err != nil {
			return err
		}
		propagate(cell, delta)
	}
	parity := old // old data already folded into delta; reuse as scratch
	for p, d := range deltas {
		if err := a.readCell(stripe, p, parity); err != nil {
			return err
		}
		xorblk.Xor(parity, d)
		if err := a.writeCell(stripe, p, parity); err != nil {
			return err
		}
	}
	return nil
}
