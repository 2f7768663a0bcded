// Package raid5 implements a RAID-5 array over the vdisk substrate: the
// starting point of every conversion the paper studies. All four standard
// parity placements are supported; the paper's default is left-asymmetric,
// whose rotation is what Code 5-6's horizontal parity anti-diagonal mirrors.
//
// Addressing: the array exposes logical data blocks 0..N-1. Logical block L
// lives in stripe row L/(m-1) at in-row position L%(m-1); each row has one
// parity block on the disk chosen by the layout's rotation.
package raid5

import (
	"errors"
	"fmt"
	"sync"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// Layout selects the parity rotation and data placement convention
// (following the Linux md naming).
type Layout int

const (
	// LeftAsymmetric: parity rotates from the last disk leftward; data
	// fills left-to-right skipping the parity disk. The paper's default.
	LeftAsymmetric Layout = iota
	// LeftSymmetric: parity as LeftAsymmetric; data starts just after the
	// parity disk and wraps (the Linux md default).
	LeftSymmetric
	// RightAsymmetric: parity rotates from the first disk rightward; data
	// fills left-to-right skipping the parity disk.
	RightAsymmetric
	// RightSymmetric: parity as RightAsymmetric; data starts just after
	// the parity disk and wraps.
	RightSymmetric
)

// String returns the md-style layout name.
func (l Layout) String() string {
	switch l {
	case LeftAsymmetric:
		return "left-asymmetric"
	case LeftSymmetric:
		return "left-symmetric"
	case RightAsymmetric:
		return "right-asymmetric"
	case RightSymmetric:
		return "right-symmetric"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ErrDoubleFailure is returned when an operation cannot complete because
// more than one disk has failed — the exact scenario RAID-5 cannot survive
// and the paper's motivation for migrating to RAID-6.
var ErrDoubleFailure = errors.New("raid5: more than one failed disk")

// ErrDoubleFault is ErrDoubleFailure at sector granularity: a peer read to
// reconstruct a block of a row is itself unreadable (a latent sector error,
// or a transient that outlived the retries), so the row holds two bad blocks
// and single parity cannot serve either. The disk error is wrapped alongside.
var ErrDoubleFault = errors.New("raid5: second unreadable block in the row")

// tel holds the array's bound telemetry instruments (see README
// "Telemetry" for the metric reference).
type tel struct {
	tr            *telemetry.Tracer
	blockReads    *telemetry.Counter // ReadBlock calls served
	blockWrites   *telemetry.Counter // WriteBlock calls served
	degradedReads *telemetry.Counter // reads answered by reconstruction
	parityUpdates *telemetry.Counter // parity blocks written
	xors          *telemetry.Counter // block XOR operations
	rebuilt       *telemetry.Counter // blocks rebuilt onto replaced disks
}

func bindTel(reg *telemetry.Registry, tr *telemetry.Tracer) tel {
	return tel{
		tr:            tr,
		blockReads:    reg.Counter("raid5.block_reads"),
		blockWrites:   reg.Counter("raid5.block_writes"),
		degradedReads: reg.Counter("raid5.degraded_reads"),
		parityUpdates: reg.Counter("raid5.parity_updates"),
		xors:          reg.Counter("raid5.xors"),
		rebuilt:       reg.Counter("raid5.blocks_rebuilt"),
	}
}

// Array is a RAID-5 array of m >= 3 disks.
type Array struct {
	disks     *vdisk.Array
	m         int
	layout    Layout
	blockSize int
	tel       tel
}

// New creates a RAID-5 array over m fresh disks.
func New(m, blockSize int, layout Layout) (*Array, error) {
	if m < 3 {
		return nil, fmt.Errorf("raid5: need at least 3 disks, got %d", m)
	}
	return &Array{disks: vdisk.NewArray(m, blockSize), m: m, layout: layout, blockSize: blockSize, tel: bindTel(nil, nil)}, nil
}

// SetTelemetry rebinds the array's counters and tracer (and those of the
// underlying disks). Pass nil for either argument to use the process-wide
// defaults.
func (a *Array) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	a.tel = bindTel(reg, tr)
	a.disks.SetTelemetry(reg, tr)
}

// Wrap builds a RAID-5 view over existing disks (e.g. restored from a
// snapshot). The first m disks serve the RAID-5; extra disks — such as a
// partially filled diagonal-parity disk from an interrupted migration —
// are left untouched by RAID-5 operations.
func Wrap(disks *vdisk.Array, m int, layout Layout) (*Array, error) {
	if m < 3 {
		return nil, fmt.Errorf("raid5: need at least 3 disks, got %d", m)
	}
	if disks.Len() < m {
		return nil, fmt.Errorf("raid5: %d disks present, need at least %d", disks.Len(), m)
	}
	return &Array{disks: disks, m: m, layout: layout, blockSize: disks.BlockSize(), tel: bindTel(nil, nil)}, nil
}

// Disks exposes the underlying disk array (the migration engine attaches new
// disks through it).
//
//c56:noalloc
func (a *Array) Disks() *vdisk.Array { return a.disks }

// M returns the number of disks.
func (a *Array) M() int { return a.m }

// Layout returns the parity placement convention.
func (a *Array) Layout() Layout { return a.layout }

// BlockSize returns the block size in bytes.
func (a *Array) BlockSize() int { return a.blockSize }

// ParityDisk returns the disk holding row's parity block.
//
//c56:noalloc
func (a *Array) ParityDisk(row int64) int {
	r := int(row % int64(a.m))
	switch a.layout {
	case LeftAsymmetric, LeftSymmetric:
		return a.m - 1 - r
	default:
		return r
	}
}

// DataDisk returns the disk holding in-row data position k (0 <= k < m-1)
// of the given row.
//
//c56:noalloc
func (a *Array) DataDisk(row int64, k int) int {
	pd := a.ParityDisk(row)
	switch a.layout {
	case LeftSymmetric, RightSymmetric:
		return (pd + 1 + k) % a.m
	default:
		if k < pd {
			return k
		}
		return k + 1
	}
}

// Locate maps a logical data block to its (row, disk) location.
//
//c56:noalloc
func (a *Array) Locate(logical int64) (row int64, disk int) {
	row = logical / int64(a.m-1)
	k := int(logical % int64(a.m-1))
	return row, a.DataDisk(row, k)
}

// failedDisks returns the indices of failed disks.
func (a *Array) failedDisks() []int {
	var f []int
	for i := 0; i < a.m; i++ {
		if a.disks.Disk(i).Failed() {
			f = append(f, i)
		}
	}
	return f
}

// ReadBlock reads logical data block L, reconstructing from parity if the
// holding disk has failed or the block is unreadable (degraded read).
func (a *Array) ReadBlock(logical int64, buf []byte) error {
	a.tel.blockReads.Inc()
	row, disk := a.Locate(logical)
	err := a.disks.Disk(disk).Read(row, buf)
	if err == nil {
		return nil
	}
	if !vdisk.IsDegradable(err) {
		return err
	}
	a.tel.degradedReads.Inc()
	lk := a.stripeLock(row)
	lk.Lock()
	defer lk.Unlock()
	return a.reconstructInto(row, disk, buf)
}

// stripeLock returns the lock of row's stripe (vdisk.Array.StripeLock): m rows
// to a stripe, the p-1 of the Code 5-6 array these disks may become, so the
// migrator and the RAID-6 view lock the same thing.
//
//c56:noalloc
func (a *Array) stripeLock(row int64) *sync.RWMutex {
	return a.disks.StripeLock(row / int64(a.m))
}

// reconstructInto rebuilds (row, disk) from all other disks into buf. Stripe
// held, exclusive.
func (a *Array) reconstructInto(row int64, disk int, buf []byte) error {
	clear(buf)
	return a.foldPeers("reconstructing", row, disk, -1, buf)
}

// rowLane is the one-lane vdisk.Disk.ReadFold of a row's block: acc ^= it.
var rowLane = []layout.FoldRun{{N: 1}}

// foldRow XORs the row's block on every disk but skip and skip2 into acc, each
// from where it lies (vdisk.Disk.ReadFold: no scratch block, no copy), counting
// it in xors unless that is nil. A read that fails is returned with its disk.
// Stripe held, exclusive: the blocks must be of one moment.
func (a *Array) foldRow(row int64, skip, skip2 int, acc []byte, xors *telemetry.Counter) (int, error) {
	for i := 0; i < a.m; i++ {
		if i == skip || i == skip2 {
			continue
		}
		if err := a.disks.Disk(i).ReadFold(row, acc, rowLane); err != nil {
			return i, err
		}
		xors.Inc()
	}
	return -1, nil
}

// foldPeers is foldRow on behalf of (row, disk), which is not read: a peer
// that cannot be is a second fault in the row, past what one parity tolerates.
func (a *Array) foldPeers(what string, row int64, disk, skip2 int, acc []byte) error {
	peer, err := a.foldRow(row, disk, skip2, acc, a.tel.xors)
	if errors.Is(err, vdisk.ErrFailed) {
		return fmt.Errorf("%w: disks %d and %d", ErrDoubleFailure, disk, peer)
	} else if err != nil {
		return fmt.Errorf("%w: %s (row %d, disk %d) needs disk %d: %w", ErrDoubleFault, what, row, disk, peer, err)
	}
	return nil
}

// WriteBlock writes logical data block L: as a small write under the stripe's
// shared lock and, where that cannot be done (see writeBlockHeld), again as a
// snapshot write under its exclusive one.
//
//c56:noalloc
func (a *Array) WriteBlock(logical int64, data []byte) error {
	if len(data) != a.blockSize {
		return fmt.Errorf("raid5: write of %d bytes, want %d", len(data), a.blockSize)
	}
	lk := a.stripeLock(logical / int64(a.m-1))
	lk.RLock()
	redo, err := a.writeBlockHeld(logical, data, false)
	lk.RUnlock()
	if redo {
		lk.Lock()
		_, err = a.writeBlockHeld(logical, data, true)
		lk.Unlock()
	}
	return err
}

// writeBlockHeld is WriteBlock with the block's stripe held as exclusive says.
//
// Held shared it is the small write, two disk operations, each atomic on its
// disk: Swap on the data block, which hands the previous contents back, then
// Xor of the delta into the parity. Folds commute, so concurrent small writes
// to one row, even to one block, leave the parity consistent with the data
// that ended up stored; and a parity not yet rebuilt takes no fold, its
// rebuild recomputing it whole under the exclusive hold. redo reports that
// this cannot be done — a disk of the two is down, or an operation met a
// degradable error — and the write is to be made again under the exclusive
// lock; what was written stays. A hard error from the parity leaves new data
// over stale parity, as a failed parity write does.
//
// Held exclusive it is the snapshot write (see snapshotWrite), which reads
// neither block.
//
//c56:noalloc
func (a *Array) writeBlockHeld(logical int64, data []byte, exclusive bool) (redo bool, err error) {
	row, disk := a.Locate(logical)
	pd := a.ParityDisk(row)
	dataDisk := a.disks.Disk(disk)
	parityDisk := a.disks.Disk(pd)
	if exclusive {
		a.tel.blockWrites.Inc()
		return false, a.snapshotWrite(row, disk, pd, data)
	}
	if dataDisk.Failed() || parityDisk.Failed() {
		return true, nil
	}
	delta := bufpool.Get(a.blockSize)
	defer bufpool.Put(delta)
	if err := dataDisk.Swap(row, data, delta); err != nil {
		return redoOn(err) // nothing has been written
	}
	xorblk.Xor(delta, data)
	a.tel.xors.Inc()
	if err := parityDisk.Xor(row, delta); err != nil {
		return redoOn(err) // the data is written; the redo recomputes the parity over it
	}
	a.tel.xors.Inc()
	a.tel.parityUpdates.Inc()
	a.tel.blockWrites.Inc()
	return false, nil
}

// redoOn turns a delta writer's failed disk operation into its result: redo
// if a snapshot write can get past the error, else the error.
//
//c56:noalloc
func redoOn(err error) (bool, error) {
	if vdisk.IsDegradable(err) {
		return true, nil
	}
	return false, err
}

// snapshotWrite writes the data block (row, disk) and the row's parity without
// reading either — the parity is the XOR of the new data and the row's other
// data blocks — so it goes through, and clears the sector, over a bad sector
// under either. With the parity disk down only the data is written (the parity
// is lost until rebuild), with the data disk down only the parity (the data is
// restored at rebuild). Stripe held, exclusive.
func (a *Array) snapshotWrite(row int64, disk, pd int, data []byte) error {
	dataDisk := a.disks.Disk(disk)
	if a.disks.Disk(pd).Failed() {
		return dataDisk.Write(row, data)
	}
	parity := bufpool.Get(a.blockSize)
	defer bufpool.Put(parity)
	copy(parity, data)
	if err := a.foldPeers("reconstruct-write", row, disk, pd, parity); err != nil {
		return err
	}
	if !dataDisk.Failed() {
		if err := dataDisk.Write(row, data); err != nil {
			return err
		}
	}
	a.tel.parityUpdates.Inc()
	return a.disks.Disk(pd).Write(row, parity)
}

// WriteParity recomputes and writes the parity of a row from its data
// blocks (full-stripe parity generation).
func (a *Array) WriteParity(row int64) error {
	pd := a.ParityDisk(row)
	parity := bufpool.GetZero(a.blockSize)
	defer bufpool.Put(parity)
	lk := a.stripeLock(row)
	lk.Lock()
	defer lk.Unlock()
	if _, err := a.foldRow(row, pd, -1, parity, a.tel.xors); err != nil {
		return err
	}
	a.tel.parityUpdates.Inc()
	return a.disks.Disk(pd).Write(row, parity)
}

// Rebuild reconstructs every row of a replaced disk from the surviving
// disks. Call vdisk.Disk.Replace on the failed disk first. rows is the
// number of stripe rows to rebuild.
func (a *Array) Rebuild(disk int, rows int64) error {
	if len(a.failedDisks()) > 0 {
		return fmt.Errorf("%w: cannot rebuild with failed disks present", ErrDoubleFailure)
	}
	sp := a.tel.tr.StartSpan("raid5.rebuild", telemetry.A("disk", disk), telemetry.A("rows", rows))
	buf := bufpool.Get(a.blockSize)
	defer bufpool.Put(buf)
	for row := int64(0); row < rows; row++ {
		lk := a.stripeLock(row)
		lk.Lock()
		err := a.reconstructInto(row, disk, buf)
		if err == nil {
			err = a.disks.Disk(disk).Write(row, buf)
		}
		lk.Unlock()
		if err != nil {
			sp.End(telemetry.A("error", err.Error()))
			return err
		}
		a.tel.rebuilt.Inc()
	}
	sp.End(telemetry.A("blocks", rows))
	return nil
}

// VerifyRow checks that the row's parity equals the XOR of its data blocks.
func (a *Array) VerifyRow(row int64) (bool, error) {
	acc := bufpool.GetZero(a.blockSize)
	defer bufpool.Put(acc)
	lk := a.stripeLock(row)
	lk.Lock()
	defer lk.Unlock()
	if _, err := a.foldRow(row, -1, -1, acc, nil); err != nil {
		return false, err
	}
	return xorblk.IsZero(acc), nil
}
