package raid6

import (
	"errors"
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// WriteRange writes a contiguous run of logical data blocks starting at
// `logical`, batching parity updates per stripe: each touched parity block
// is read and written once regardless of how many of its covered data
// blocks changed — the partial-stripe write optimization (per-block
// read-modify-write pays 2 I/Os on a parity for every block under it).
// data's length must be a multiple of the block size. Stripes whose data
// cells are all overwritten are encoded without reading at all (WriteStripe),
// with a disk down too.
func (a *Array) WriteRange(logical int64, data []byte) error {
	if len(data)%a.blockSize != 0 {
		return fmt.Errorf("raid6: range of %d bytes is not block-aligned (%d)", len(data), a.blockSize)
	}
	nBlocks := int64(len(data) / a.blockSize)
	if nBlocks == 0 {
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

// writePartialStripe writes a run of new blocks within one stripe: as delta
// writes (see foldRun) under the stripe's shared lock and, when those meet a
// degradable error, with writeDegraded under the exclusive one.
//
//c56:noalloc
func (a *Array) writePartialStripe(stripe, first int64, data []byte) error {
	lk := a.disks.StripeLock(stripe)
	lk.RLock()
	err := a.foldRun(stripe, first, data)
	lk.RUnlock()
	if err == nil || !vdisk.IsDegradable(err) {
		return err
	}
	lk.Lock()
	defer lk.Unlock()
	return a.writeDegraded(stripe, first, data) //lint:allow noalloc a write that meets a fault recomputes its chains; the delta write is the steady state
}

// foldRun is the small write of a run of new blocks within one stripe: each
// data cell is swapped for its new contents, which hands back its delta, and
// every chain of the cells' cascades, in cascade order, absorbs it with
// Disk.Xor — once per listing when no other cell of the run reaches the chain
// (a one-block Code 5-6 write: three disk operations, nothing scanned), else
// as the cells' XOR in one fold at the first of them. Each operation is atomic
// and the folds commute, so concurrent small writes to one stripe keep every
// parity consistent; the fixed order fixes the shared diagonal disk's injector
// draws. A fold into a down disk is skipped, as into a stale block: rebuild
// recomputes it. A failed swap ends the run, but what was swapped is folded,
// and a failed fold stops no other — writeDegraded may decode from these
// parities. The first error is returned. Stripe held, shared.
//
//c56:noalloc
func (a *Array) foldRun(stripe, first int64, data []byte) error {
	bs := a.blockSize
	deltas := bufpool.Get(len(data))
	defer bufpool.Put(deltas)
	var err error
	n := 0
	for ; n < len(data)/bs; n++ {
		b, d := data[n*bs:(n+1)*bs], deltas[n*bs:(n+1)*bs]
		if err = a.swapCell(stripe, a.dataCells[first+int64(n)], b, d); err != nil {
			break
		}
		xorblk.Xor(d, b)
		a.tel.xors.Inc()
	}
	cells := a.dataCells[first : first+int64(n)]
	for i, c := range cells {
		cascade := a.cascade[a.geom.Index(c)]
		for k, ci := range cascade {
			switch {
			case a.reaches(cells[:i], ci):
				// Folded at the first cell that reaches it.
			case !a.reaches(cells[i+1:], ci):
				a.foldParity(stripe, ci, deltas[i*bs:(i+1)*bs], &err)
			case !listed(cascade[:k], ci):
				agg := bufpool.GetZero(bs)
				for j := i; j < len(cells); j++ {
					for _, cj := range a.cascade[a.geom.Index(cells[j])] {
						if cj == ci {
							xorblk.Xor(agg, deltas[j*bs:(j+1)*bs])
							a.tel.xors.Inc()
						}
					}
				}
				a.foldParity(stripe, ci, agg, &err)
				bufpool.Put(agg)
			}
		}
	}
	return err
}

// reaches reports whether chain ci is in the cascade of any of cells.
//
//c56:noalloc
func (a *Array) reaches(cells []layout.Coord, ci int) bool {
	for _, c := range cells {
		if listed(a.cascade[a.geom.Index(c)], ci) {
			return true
		}
	}
	return false
}

// listed reports whether chain ci is in chains.
//
//c56:noalloc
func listed(chains []int, ci int) bool {
	for _, cj := range chains {
		if cj == ci {
			return true
		}
	}
	return false
}

// foldParity folds delta into chain ci's parity where it lies, unless the
// parity's disk is down; a failure is kept in *err unless one is there.
//
//c56:noalloc
func (a *Array) foldParity(stripe int64, ci int, delta []byte, err *error) {
	switch ferr := a.xorCell(stripe, a.chains[ci].Parity, delta); {
	case ferr == nil:
		a.tel.xors.Inc()
		a.tel.parityUpdates.Inc()
	case *err == nil && !errors.Is(ferr, vdisk.ErrFailed):
		*err = ferr
	}
}

// writeDegraded is the write of a run of blocks within one stripe, from data
// cell first on, that a delta write could not make: each parity of the cells'
// cascades is recomputed, in the encoder's order, from its chain's other
// members — new data and earlier recomputed parities from memory, the rest
// read once — and the data and those parities are written. Neither the cells
// nor their parities are read, so a bad sector or lost disk under them is
// written through, and a half-folded delta write is made whole; only an
// unreadable member loads the stripe (writeReconstructed). Down disks are not
// written: rebuild restores them. Stripe held, exclusive.
func (a *Array) writeDegraded(stripe, first int64, data []byte) error {
	bs := a.blockSize
	cells := a.dataCells[first : first+int64(len(data)/bs)]
	s := a.stripes.Get()
	defer a.stripes.Put(s)
	known := make([]bool, a.geom.Elements()) // s holds the cell's block
	touched := make([]bool, len(a.chains))
	for d, c := range cells {
		s.SetBlock(c, data[d*bs:(d+1)*bs])
		known[a.geom.Index(c)] = true
		for _, ci := range a.cascade[a.geom.Index(c)] {
			touched[ci] = true
		}
	}
	for _, ci := range a.enc.Order() {
		if !touched[ci] {
			continue
		}
		ch := &a.chains[ci]
		s.Zero(ch.Parity)
		for _, m := range ch.Covers {
			if !known[a.geom.Index(m)] {
				if err := a.readCell(stripe, m, s.Block(m)); vdisk.IsDegradable(err) {
					return a.writeReconstructed(stripe, cells, data)
				} else if err != nil {
					return err
				}
				known[a.geom.Index(m)] = true
			}
			xorblk.Xor(s.Block(ch.Parity), s.Block(m))
			a.tel.xors.Inc()
		}
		known[a.geom.Index(ch.Parity)] = true
	}
	for _, c := range cells {
		if err := a.writeLive(stripe, c, s.Block(c)); err != nil {
			return err
		}
	}
	for ci, ch := range a.chains {
		if touched[ci] {
			if err := a.writeLive(stripe, ch.Parity, s.Block(ch.Parity)); err != nil {
				return err
			}
			a.tel.parityUpdates.Inc()
		}
	}
	return nil
}

// writeReconstructed is writeDegraded around further damage: it loads the
// stripe, decodes what cannot be read, stores the new data and encodes every
// parity from the data. Stripe held, exclusive.
func (a *Array) writeReconstructed(stripe int64, cells []layout.Coord, data []byte) error {
	s, es, err := a.loadStripe(stripe, nil)
	if err != nil {
		return err
	}
	defer a.stripes.Put(s)
	if len(es) > 0 {
		if _, err := a.dec.Reconstruct(s, es); err != nil {
			return fmt.Errorf("%w: %w", ErrTooManyFailures, err)
		}
	}
	for i, c := range cells {
		s.SetBlock(c, data[i*a.blockSize:(i+1)*a.blockSize])
	}
	a.enc.Encode(s)
	a.tel.xors.Add(a.encodeXORs)
	for _, c := range cells {
		if err := a.writeLive(stripe, c, s.Block(c)); err != nil {
			return err
		}
	}
	for _, ch := range a.chains {
		if err := a.writeLive(stripe, ch.Parity, s.Block(ch.Parity)); err != nil {
			return err
		}
		a.tel.parityUpdates.Inc()
	}
	return nil
}

// writeLive writes one cell unless its disk is down, or goes down under the
// write: what the cell should hold comes back at rebuild.
func (a *Array) writeLive(stripe int64, c layout.Coord, b []byte) error {
	if a.diskFor(stripe, c.Col).Failed() {
		return nil
	}
	if err := a.writeCell(stripe, c, b); !errors.Is(err, vdisk.ErrFailed) {
		return err
	}
	return nil
}
