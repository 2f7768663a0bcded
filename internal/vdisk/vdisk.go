// Package vdisk provides the simulated block-device substrate the RAID
// layers run on: in-memory disks with per-disk I/O accounting, fail-stop
// failure injection, and latent sector errors (the unrecoverable-error class
// the paper's motivation section cites as the reason to migrate RAID-5
// arrays to RAID-6).
//
// Disks are safe for concurrent use; the online-migration engine drives
// application I/O and conversion I/O against the same disks from separate
// goroutines.
package vdisk

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/xorblk"
)

// Error values returned by disk operations.
var (
	// ErrFailed is returned by any I/O against a fail-stopped disk.
	ErrFailed = errors.New("vdisk: disk failed")
	// ErrLatent is returned when reading a block with an injected latent
	// sector error; writes clear the error (sector remap semantics).
	ErrLatent = errors.New("vdisk: latent sector error")
	// ErrTransient is returned when the fault injector makes an I/O fail
	// transiently; the same operation may succeed when retried (see
	// SetRetry for the built-in retry-with-backoff policy).
	ErrTransient = errors.New("vdisk: transient I/O error")
	// ErrStale is returned when reading a block not written since its disk
	// was replaced, or since MarkStale: the block holds no data yet, and only
	// the array's redundancy can say what it should hold.
	ErrStale = errors.New("vdisk: block not yet rebuilt")
	// ErrBadBlock is returned for negative block addresses or size
	// mismatches.
	ErrBadBlock = errors.New("vdisk: bad block request")
)

// IsDegradable reports whether an I/O error is one an array's redundancy can
// serve: a fail-stopped disk, a latent sector, a transient fault that outlived
// the retry policy, or a block not yet rebuilt.
//
//c56:noalloc
func IsDegradable(err error) bool {
	return errors.Is(err, ErrFailed) || errors.Is(err, ErrLatent) ||
		errors.Is(err, ErrTransient) || errors.Is(err, ErrStale)
}

// Stats counts the I/O a disk has served. Failed operations are not
// counted.
//
// Contract: Stats counters are *resettable* — ResetStats zeroes them, and
// the migration cost accounting relies on that to scope totals to one
// experiment phase. The per-disk telemetry gauges
// (vdisk.disk.<id>.reads/.writes) mirror Stats exactly, including resets.
// The package-wide telemetry counters (vdisk.reads, vdisk.writes, …) are
// *monotonic* for the life of the process and are never reset; use those
// for rates and cross-experiment totals.
type Stats struct {
	Reads  int64
	Writes int64
}

// Total returns Reads+Writes.
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// Disk is a simulated block device with a fixed block size over a
// pluggable BlockStore (in-memory by default; see NewDiskStore and the
// filestore package for durable backends). Unwritten blocks read as zero,
// matching the NULL/virtual-element semantics the migration algorithms
// rely on — except on a disk that was replaced, or marked (MarkStale), whose
// blocks are stale until written. The zero value is not usable; construct
// with NewDisk or NewDiskStore.
type Disk struct {
	id        int
	blockSize int

	mu sync.RWMutex
	// store is fixed at construction (Replace wipes media through the
	// store's Resetter rather than swapping the store), so it carries no
	// guard annotation and Store reads it without the lock. xorer is the
	// same store's XOR in place, nil when it has none.
	store  BlockStore
	xorer  Xorer
	failed bool //c56:guardedby mu
	// isFailed mirrors failed for Failed, which the arrays ask of every disk
	// before every write. It is written only under mu, by setFailed.
	isFailed atomic.Bool
	// failedErr caches the wrapped fail-stop error, built on first use:
	// every I/O against a failed disk returns the same value, so the
	// degraded-read hot path (reconstruct around the failure, possibly for
	// millions of blocks) does not allocate a fresh error per call.
	failedErr error          //c56:guardedby mu
	latent    map[int64]bool //c56:guardedby mu
	stats     Stats          //c56:guardedby mu
	tel       diskTel
	// staleFrom and fresh are the blocks not yet written since Replace or
	// MarkStale: block b is stale when b >= staleFrom and bit b-staleFrom of
	// fresh is clear. Words of fresh filled from the front move staleFrom on,
	// so a disk rebuilt in address order keeps a few words; one with nothing
	// stale has staleFrom = noStale.
	staleFrom int64    //c56:guardedby mu
	fresh     []uint64 //c56:guardedby mu
	// staleEnd is staleFrom + 64·len(fresh), stored under mu: no block at or
	// past it has been written since the mark, so Xor drops a fold there
	// without the lock, which a rebuild may be holding across a store call.
	staleEnd atomic.Int64

	// faults, when non-nil, is the armed fault injector (see faults.go).
	faults *faultState //c56:guardedby mu
	// retryMax/retryBase are the transient-error retry policy: up to
	// retryMax retries with exponential backoff starting at retryBase.
	retryMax  int           //c56:guardedby mu
	retryBase time.Duration //c56:guardedby mu
}

// NewDisk returns an empty memory-backed disk with the given id and block
// size, bound to the default telemetry registry (rebind with SetTelemetry).
func NewDisk(id, blockSize int) *Disk {
	if blockSize <= 0 {
		panic(fmt.Sprintf("vdisk: invalid block size %d", blockSize))
	}
	return NewDiskStore(id, blockSize, NewMemStore(blockSize))
}

// NewDiskStore returns a disk over an explicit BlockStore — the seam the
// durable backends plug into. The store's existing contents (a reopened
// file image) become the disk's contents.
func NewDiskStore(id, blockSize int, store BlockStore) *Disk {
	if blockSize <= 0 {
		panic(fmt.Sprintf("vdisk: invalid block size %d", blockSize))
	}
	if store == nil {
		panic("vdisk: nil block store")
	}
	d := &Disk{
		id:        id,
		blockSize: blockSize,
		store:     store,
		latent:    make(map[int64]bool),
		staleFrom: noStale,
	}
	d.staleEnd.Store(noStale)
	d.xorer, _ = store.(Xorer)
	d.bindTelemetry(nil, nil)
	return d
}

// ID returns the disk's identifier.
func (d *Disk) ID() int { return d.id }

// BlockSize returns the disk's block size in bytes.
func (d *Disk) BlockSize() int { return d.blockSize }

// Read copies block b into buf. buf must be exactly one block long. It is
// the one-block case of ReadBlocks.
//
//c56:noalloc
func (d *Disk) Read(b int64, buf []byte) error {
	if len(buf) != d.blockSize {
		return fmt.Errorf("%w: read block %d, buf %d", ErrBadBlock, b, len(buf))
	}
	return d.ReadBlocks(b, buf)
}

// ReadBlocks copies the n = len(buf)/BlockSize consecutive blocks starting at
// b into buf with a single store call. It counts as n block I/Os everywhere
// the paper's accounting looks (Stats, vdisk.reads, vdisk.io_rate,
// vdisk.io_bytes, FailAtIO); only the per-disk latency histogram sees one
// observation, the store call's. The run is all or nothing: a stale block
// anywhere in it fails the call with ErrStale before anything else is asked
// (see MarkStale), and every block passes the fault and latent checks, in
// address order, before the store is touched, so the first bad block fails
// the whole call with the error a single Read of it would return, and no I/O
// is counted. The injector has still been consulted for every block up to and
// including that one, as the one-block reads up to it would have: each is an
// attempt on FailAtIO's clock and a draw that may have discovered a latent
// sector, so a caller that falls back to reading the run block by block meets
// the injector further along than Stats shows. Transient faults from the
// injector are retried per the SetRetry policy before the error is surfaced.
// buf must hold a positive whole number of blocks.
//
//c56:noalloc
func (d *Disk) ReadBlocks(b int64, buf []byte) error {
	if b < 0 || len(buf) == 0 || len(buf)%d.blockSize != 0 {
		return fmt.Errorf("%w: read block %d, buf %d", ErrBadBlock, b, len(buf))
	}
	return d.do(opRead, b, buf, nil, nil)
}

// ReadFold reads a run of blocks and lands each on every lane that takes it:
// the read side of parity computations, whose data is wanted only as terms of
// sums. Lane l takes blocks b+l.Row .. b+l.Row+l.N-1 onto acc's blocks l.Acc
// .. l.Acc+l.N-1, stored there if l.First (a first contributor) and XORed in
// otherwise; the run is the rows the lanes span, and lanes may share a block
// (a cell in two chains) or an accumulator. It works block by block, so the
// second taker of a block finds it in L1. To the disk it is ReadBlocks of the
// run — n reads everywhere ReadBlocks counts them, one latency observation,
// the same checks on every block in address order before the store is
// touched, the same retry policy, the same position left on the injector's
// clock by a run that fails — and it is all or nothing: a call that fails
// leaves acc as it was, so the caller can take the run again block by block.
// A store that can fold in place (Xorer) lands the blocks from where they lie;
// any other is read into pooled scratch and landed from there inside the same
// operation. A block never written folds nothing and gives a first
// contributor zeros. One lane {N: n} is acc ^= the n blocks from b.
//
//c56:noalloc
func (d *Disk) ReadFold(b int64, acc []byte, lanes []layout.FoldRun) error {
	ok := b >= 0 && len(lanes) > 0
	for _, l := range lanes {
		ok = ok && l.Row >= 0 && l.N > 0 && l.Acc >= 0 && (l.Acc+l.N)*d.blockSize <= len(acc)
	}
	if !ok {
		return fmt.Errorf("%w: read-fold block %d, acc %d, %d lanes", ErrBadBlock, b, len(acc), len(lanes))
	}
	return d.do(opRead, b, acc, nil, lanes)
}

// Write stores data as block b. data must be exactly one block long. It is
// the one-block case of WriteBlocks.
//
//c56:noalloc
func (d *Disk) Write(b int64, data []byte) error {
	if len(data) != d.blockSize {
		return fmt.Errorf("%w: write block %d, data %d", ErrBadBlock, b, len(data))
	}
	return d.WriteBlocks(b, data)
}

// WriteBlocks stores data as the n = len(data)/BlockSize consecutive blocks
// starting at b with a single store call, counted as n block I/Os (see
// ReadBlocks, also for what a failed run leaves on the injector's clock).
// Every block passes the fault check before the store is touched, so a
// faulted run writes nothing. Writing clears any latent error on the blocks,
// and their stale state. Transient faults from the injector are retried per
// the SetRetry policy. data must hold a positive whole number of blocks.
//
//c56:noalloc
func (d *Disk) WriteBlocks(b int64, data []byte) error {
	if b < 0 || len(data) == 0 || len(data)%d.blockSize != 0 {
		return fmt.Errorf("%w: write block %d, data %d", ErrBadBlock, b, len(data))
	}
	return d.do(opWrite, b, data, nil, nil)
}

// Swap stores data as block b and hands the block's previous contents back in
// old: the first half of a parity array's small write, whose old data is the
// delta every covering parity must absorb. It is one locked disk operation
// that counts as one read and one write everywhere ReadBlocks and WriteBlocks
// count (Stats, vdisk.reads and vdisk.writes, vdisk.io_bytes, vdisk.io_rate,
// two attempts on FailAtIO's clock) and is all or nothing: the read-side
// checks (fail-stop, injector, latent sector) and then the write-side ones run
// before the store is touched, in the order a Read followed by a Write would
// meet the injector, so a Swap that fails has stored nothing and counted
// nothing, and a seeded fault run replays draw for draw. No other operation on
// the disk — a Write, a Fail, a Replace — can fall between the two halves.
// Transient faults are retried per the SetRetry policy. data and old must be
// one block long each and must not overlap.
//
//c56:noalloc
func (d *Disk) Swap(b int64, data, old []byte) error {
	if b < 0 || len(data) != d.blockSize || len(old) != d.blockSize {
		return fmt.Errorf("%w: swap block %d, data %d, old %d", ErrBadBlock, b, len(data), len(old))
	}
	return d.do(opSwap, b, data, old, nil)
}

// Xor folds delta into block b where it lies (block ^= delta): the other half
// of a small write, applied to each parity covering the changed data. Like
// Swap it is one locked, all-or-nothing operation counted as one read and one
// write, with the same order of checks and the same retry policy; a latent
// sector fails it with ErrLatent, since the old contents are part of the
// result. A store that can fold in place (Xorer) is asked to; any other is
// read, folded in pooled scratch and written back inside the same operation.
// A block never written reads as zero, so folding into it stores delta; a
// stale one (see MarkStale) takes nothing and counts nothing. Folds
// commute, so concurrent Xors of one block leave the same bytes in either
// order. delta must be one block long.
//
//c56:noalloc
func (d *Disk) Xor(b int64, delta []byte) error {
	if b < 0 || len(delta) != d.blockSize {
		return fmt.Errorf("%w: xor block %d, delta %d", ErrBadBlock, b, len(delta))
	}
	if b >= d.staleEnd.Load() && !d.Failed() {
		return nil // stale (see MarkStale); a write of b would have moved staleEnd past it
	}
	return d.do(opXor, b, delta, nil, nil)
}

// ioOp selects one of the disk's block operations; a read with lanes is
// ReadFold.
type ioOp uint8

const (
	opRead ioOp = iota
	opWrite
	opSwap
	opXor
)

// do runs one operation and, if the injector failed it transiently, runs it
// again under the retry policy. The policy is looked up only then: a served
// I/O never takes the lock a second time to read it.
//
//c56:noalloc
func (d *Disk) do(op ioOp, b int64, p, old []byte, lanes []layout.FoldRun) error {
	err := d.attempt(op, b, p, old, lanes)
	if err == nil || !errors.Is(err, ErrTransient) {
		return err
	}
	max, base := d.retryPolicy()
	for retry := 1; retry <= max; retry++ {
		d.tel.retries.Inc()
		time.Sleep(backoff(base, retry))
		if err = d.attempt(op, b, p, old, lanes); err == nil || !errors.Is(err, ErrTransient) {
			break
		}
	}
	return err
}

// attempt makes one try at an operation under the disk's lock. The latency
// clock starts after the lock is acquired: the histograms measure device
// service time only, excluding queueing behind other callers (see diskTel).
//
//c56:noalloc
func (d *Disk) attempt(op ioOp, b int64, p, old []byte, lanes []layout.FoldRun) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := ioClock()
	switch op {
	case opRead:
		return d.readLocked(b, p, lanes, start)
	case opWrite:
		return d.writeLocked(b, p, start)
	case opSwap:
		return d.swapLocked(b, p, old, start)
	default:
		return d.xorLocked(b, p, start)
	}
}

// epoch anchors the I/O clock: time.Since of a Time carrying a monotonic
// reading is one clock read, where time.Now is two (wall and monotonic).
var (
	epoch         = time.Now()
	epochUnixNano = epoch.UnixNano()
)

// ioClock returns the monotonic time elapsed since epoch.
//
//c56:noalloc
func ioClock() time.Duration { return time.Since(epoch) }

// unixSecond returns the wall-clock second of ioClock reading t.
//
//c56:noalloc
func unixSecond(t time.Duration) int64 {
	return (epochUnixNano + int64(t)) / int64(time.Second)
}

// micros is the latency histograms' unit.
//
//c56:noalloc
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// readLocked is ReadBlocks (lanes nil) and ReadFold: one store call between
// the same checks and the same accounting.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) readLocked(b int64, buf []byte, lanes []layout.FoldRun, start time.Duration) error {
	bs := d.blockSize
	lo, hi := 0, len(buf)/bs
	if lanes != nil {
		lo, hi = span(lanes)
	}
	first := b + int64(lo)
	if err := d.checkRead(first, int64(hi-lo)); err != nil {
		return err
	}
	var err error
	switch {
	case lanes == nil:
		_, err = d.store.ReadAt(buf, b*int64(bs))
	case d.xorer != nil:
		err = d.xorer.ReadFoldAt(buf, b*int64(bs), bs, lanes)
	default:
		run := bufpool.Get((hi - lo) * bs)
		if _, err = d.store.ReadAt(run, first*int64(bs)); err == nil {
			for row := lo; row < hi; row++ {
				landPiece(buf, run[(row-lo)*bs:(row-lo+1)*bs], row, 0, bs, bs, lanes)
			}
		}
		bufpool.Put(run)
	}
	if err != nil {
		return d.storeErr(d.tel.readErrs, first, err)
	}
	end := ioClock() // read once: the rate's second and the latency's end
	d.served(int64(hi-lo), 0, end)
	d.tel.readLat.Observe(micros(end - start))
	return nil
}

// span returns the rows [lo, hi) a ReadFold's lanes take: the run it reads.
//
//c56:noalloc
func span(lanes []layout.FoldRun) (lo, hi int) {
	lo = lanes[0].Row
	for _, l := range lanes {
		lo, hi = min(lo, l.Row), max(hi, l.Row+l.N)
	}
	return lo, hi
}

// landPiece lands bytes [at, at+n) of block row of a ReadFold's run on every
// lane that takes the block: stored on a first contributor, XORed in
// otherwise. src holds them, or is nil where they were never written, which
// folds nothing and gives a first contributor zeros.
//
//c56:noalloc
func landPiece(acc, src []byte, row, at, n, bs int, lanes []layout.FoldRun) {
	for _, l := range lanes {
		if row < l.Row || row >= l.Row+l.N {
			continue
		}
		dst := acc[(l.Acc+row-l.Row)*bs+at:][:n]
		switch {
		case l.First && src == nil:
			clear(dst)
		case l.First:
			copy(dst, src)
		case src != nil:
			xorblk.Xor(dst, src)
		}
	}
}

//c56:requires mu
//c56:noalloc
func (d *Disk) writeLocked(b int64, data []byte, start time.Duration) error {
	n := int64(len(data) / d.blockSize)
	if err := d.checkWrite(b, n); err != nil {
		return err
	}
	if _, err := d.store.WriteAt(data, b*int64(d.blockSize)); err != nil {
		return d.storeErr(d.tel.writeErrs, b, err)
	}
	end := ioClock()
	d.served(0, n, end)
	d.tel.writeLat.Observe(micros(end - start))
	for blk := b; blk < b+n; blk++ {
		delete(d.latent, blk)
	}
	d.written(b, n)
	return nil
}

//c56:requires mu
//c56:noalloc
func (d *Disk) swapLocked(b int64, data, old []byte, start time.Duration) error {
	if err := d.checkRead(b, 1); err != nil {
		return err
	}
	if err := d.checkWrite(b, 1); err != nil {
		return err
	}
	off := b * int64(d.blockSize)
	if _, err := d.store.ReadAt(old, off); err != nil {
		return d.storeErr(d.tel.readErrs, b, err)
	}
	mid := ioClock()
	if _, err := d.store.WriteAt(data, off); err != nil {
		return d.storeErr(d.tel.writeErrs, b, err)
	}
	d.servedPair(start, mid)
	return nil
}

//c56:requires mu
//c56:noalloc
func (d *Disk) xorLocked(b int64, delta []byte, start time.Duration) error {
	if _, stale := d.staleIn(b, 1); stale && !d.failed {
		return nil // the block's rebuild writes it whole (see MarkStale)
	}
	if err := d.checkRead(b, 1); err != nil {
		return err
	}
	if err := d.checkWrite(b, 1); err != nil {
		return err
	}
	off := b * int64(d.blockSize)
	if d.xorer != nil {
		// One store call: it is observed as a write, the half that changes
		// the medium.
		if _, err := d.xorer.XorAt(delta, off); err != nil {
			return d.storeErr(d.tel.writeErrs, b, err)
		}
		end := ioClock()
		d.served(1, 1, end)
		d.tel.writeLat.Observe(micros(end - start))
		return nil
	}
	cur := bufpool.Get(d.blockSize)
	defer bufpool.Put(cur)
	if _, err := d.store.ReadAt(cur, off); err != nil {
		return d.storeErr(d.tel.readErrs, b, err)
	}
	mid := ioClock()
	xorblk.Xor(cur, delta)
	if _, err := d.store.WriteAt(cur, off); err != nil {
		return d.storeErr(d.tel.writeErrs, b, err)
	}
	d.servedPair(start, mid)
	return nil
}

// servedPair books an operation that made two store calls, a read from start
// to mid and a write from mid to now, as one I/O of each kind. There is no
// latent mark to clear: the block passed checkRead.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) servedPair(start, mid time.Duration) {
	end := ioClock()
	d.served(1, 1, end)
	d.tel.readLat.Observe(micros(mid - start))
	d.tel.writeLat.Observe(micros(end - mid))
}

// checkRead runs the read side's checks on blocks [b, b+n): on a disk that is
// up, whether any is stale, then in address order fail-stop state and
// injector, then the latent-sector table.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) checkRead(b, n int64) error {
	if blk, stale := d.staleIn(b, n); stale && !d.failed {
		return fmt.Errorf("%w: disk %d block %d", ErrStale, d.id, blk)
	}
	for blk := b; blk < b+n; blk++ {
		if err := d.faultCheck(blk, false); err != nil {
			d.tel.readErrs.Inc()
			return err
		}
		if d.latent[blk] {
			d.tel.readErrs.Inc()
			d.tel.latent.Inc()
			d.tel.tr.Event("vdisk.latent_hit", telemetry.A("disk", d.id), telemetry.A("block", blk))
			return fmt.Errorf("%w: disk %d block %d", ErrLatent, d.id, blk)
		}
	}
	return nil
}

// checkWrite runs the write side's checks on blocks [b, b+n).
//
//c56:requires mu
//c56:noalloc
func (d *Disk) checkWrite(b, n int64) error {
	for blk := b; blk < b+n; blk++ {
		if err := d.faultCheck(blk, true); err != nil {
			d.tel.writeErrs.Inc()
			return err
		}
	}
	return nil
}

// storeErr counts and wraps a failed store call.
func (d *Disk) storeErr(errs *telemetry.Counter, b int64, err error) error {
	errs.Inc()
	return fmt.Errorf("vdisk: disk %d block %d: %w", d.id, b, err)
}

// served counts block I/Os the store has just completed, at clock reading end.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) served(reads, writes int64, end time.Duration) {
	if reads > 0 {
		d.stats.Reads += reads
		d.tel.reads.Set(d.stats.Reads)
		d.tel.allReads.Add(reads)
	}
	if writes > 0 {
		d.stats.Writes += writes
		d.tel.writes.Set(d.stats.Writes)
		d.tel.allWrites.Add(writes)
	}
	d.tel.ioBytes.ObserveN(float64(d.blockSize), reads+writes)
	d.tel.ioRate.AddSec(unixSecond(end), reads+writes)
}

// faultCheck runs the fail-stop state and the armed injector against one
// block's I/O attempt. Caller holds d.mu.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) faultCheck(b int64, write bool) error {
	if d.failed {
		if d.failedErr == nil {
			d.failedErr = fmt.Errorf("%w: disk %d", ErrFailed, d.id)
		}
		return d.failedErr
	}
	f := d.faults
	if f == nil {
		return nil
	}
	f.ios++
	if f.cfg.FailAtIO > 0 && f.ios >= f.cfg.FailAtIO {
		d.setFailed(true)
		d.tel.fails.Inc()
		d.tel.tr.Event("vdisk.scheduled_fail", telemetry.A("disk", d.id), telemetry.A("at_io", f.ios))
		return fmt.Errorf("%w: disk %d (scheduled failure at I/O %d)", ErrFailed, d.id, f.ios)
	}
	prob := f.cfg.ReadTransientProb
	if write {
		prob = f.cfg.WriteTransientProb
	}
	if prob > 0 && f.rng.Float64() < prob {
		d.tel.transients.Inc()
		return fmt.Errorf("%w: disk %d block %d", ErrTransient, d.id, b)
	}
	if !write && f.cfg.LatentProb > 0 && !d.latent[b] && f.rng.Float64() < f.cfg.LatentProb {
		d.latent[b] = true                                                                          //lint:allow noalloc latent-error injection is a simulated-fault path, not steady state
		d.tel.tr.Event("vdisk.latent_injected", telemetry.A("disk", d.id), telemetry.A("block", b)) //lint:allow noalloc fault-path trace event
	}
	return nil
}

// noStale is staleFrom on a disk with no stale block.
const noStale = math.MaxInt64

// MarkStale declares every block from b on not yet written: until a write
// covers it, a read, ReadFold or Swap that touches it fails with ErrStale, and
// an Xor into it is dropped, counted nowhere — whoever rebuilds the block
// writes it whole, under the exclusive hold of its stripe that keeps the small
// writes out. Blocks below b are valid, whatever an earlier call said. Replace
// marks a new drive from block 0; the online migrator marks its diagonal-parity
// disk from the first row it has yet to convert. The state is kept in memory
// only: a reopened store's blocks are all valid.
func (d *Disk) MarkStale(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.markStale(b)
}

//c56:requires mu
func (d *Disk) markStale(b int64) {
	d.staleFrom, d.fresh = b, d.fresh[:0]
	d.staleEnd.Store(b)
}

// staleIn returns the first stale block of [b, b+n), if there is one.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) staleIn(b, n int64) (int64, bool) {
	for blk := max(b, d.staleFrom); blk < b+n; blk++ {
		i := blk - d.staleFrom
		if w := int(i >> 6); w >= len(d.fresh) || d.fresh[w]&(1<<(i&63)) == 0 {
			return blk, true
		}
	}
	return 0, false
}

// written ends the stale state of blocks [b, b+n), which a write has just
// stored.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) written(b, n int64) {
	for blk := max(b, d.staleFrom); blk < b+n; blk++ {
		i := blk - d.staleFrom
		w := int(i >> 6)
		if w >= len(d.fresh) {
			had := len(d.fresh)
			d.fresh = slices.Grow(d.fresh, w+1-had)[:w+1] //lint:allow noalloc the stale map grows a word per 64 blocks rebuilt out of order; a disk with none never gets here
			clear(d.fresh[had:])
		}
		d.fresh[w] |= 1 << (i & 63)
	}
	full := 0
	for full < len(d.fresh) && d.fresh[full] == math.MaxUint64 {
		full++
	}
	if full > 0 {
		d.fresh = d.fresh[:copy(d.fresh, d.fresh[full:])]
		d.staleFrom += int64(full) * 64
	}
	if d.staleFrom != noStale {
		d.staleEnd.Store(d.staleFrom + int64(len(d.fresh))*64)
	}
}

// setFailed changes the fail-stop state and its lock-free mirror together.
//
//c56:requires mu
//c56:noalloc
func (d *Disk) setFailed(v bool) {
	d.failed = v
	d.isFailed.Store(v)
}

// Trim discards block b's contents; subsequent reads return zeros. It is
// not counted as an I/O (it models invalidating a parity block's mapping,
// not writing it — use Write for the paper's NULL-write accounting).
// Stores implementing Trimmer deallocate; others get the block zeroed.
func (d *Disk) Trim(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	off := b * int64(d.blockSize)
	if t, ok := d.store.(Trimmer); ok {
		_ = t.Trim(off, int64(d.blockSize))
		return
	}
	zero := bufpool.GetZero(d.blockSize)
	defer bufpool.Put(zero)
	_, _ = d.store.WriteAt(zero, off)
}

// Sync is the disk's durability barrier: it flushes every prior write to
// the backing store's stable medium (a no-op for memory-backed disks). A
// fail-stopped disk cannot be synced.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		if d.failedErr == nil {
			d.failedErr = fmt.Errorf("%w: disk %d", ErrFailed, d.id)
		}
		return d.failedErr
	}
	if err := d.store.Sync(); err != nil {
		return fmt.Errorf("vdisk: disk %d: %w", d.id, err)
	}
	d.tel.syncs.Inc()
	return nil
}

// Close releases the disk's backing store. The disk is unusable after.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store.Close()
}

// Store exposes the disk's BlockStore (size reporting and tests).
func (d *Disk) Store() BlockStore { return d.store }

// Fail marks the disk fail-stopped: every subsequent I/O errors until
// Replace is called.
func (d *Disk) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.failed {
		d.tel.fails.Inc()
		d.tel.tr.Event("vdisk.fail", telemetry.A("disk", d.id))
	}
	d.setFailed(true)
}

// Failed reports whether the disk is fail-stopped.
//
//c56:noalloc
func (d *Disk) Failed() bool { return d.isFailed.Load() }

// Replace swaps in a fresh drive: contents, latent errors and any armed
// fault injector are discarded (new hardware does not inherit the old
// drive's fault scenario — re-arm with SetFaults if desired) and the disk
// accepts I/O again, every block stale until written (see MarkStale): a
// read of one is ErrStale, which the arrays serve from redundancy, never the
// blank drive's zeros. Stats are preserved (they describe the slot, which is
// how the migration cost accounting uses them), as is the retry policy
// (it describes the controller, not the drive).
//
// Wiping the media goes through the store's Resetter capability (both
// built-in backends have it). If the reset fails — a durable backend that
// cannot truncate its file — the disk stays fail-stopped with the reset
// error, so a half-wiped drive is never silently put back in service.
func (d *Disk) Replace() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.store.(Resetter); ok {
		if err := r.Reset(); err != nil {
			d.setFailed(true)
			d.failedErr = fmt.Errorf("%w: disk %d (replace: %v)", ErrFailed, d.id, err)
			return
		}
	}
	d.setFailed(false)
	d.failedErr = nil
	clear(d.latent)
	d.markStale(0)
	d.faults = nil
	d.tel.replaces.Inc()
	d.tel.tr.Event("vdisk.replace", telemetry.A("disk", d.id))
}

// InjectLatentError marks block b with a latent sector error: reads fail
// until the block is rewritten.
func (d *Disk) InjectLatentError(b int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.latent[b] = true
	d.tel.tr.Event("vdisk.latent_injected", telemetry.A("disk", d.id), telemetry.A("block", b))
}

// Stats returns a snapshot of the disk's I/O counters.
func (d *Disk) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats
}

// ResetStats zeroes the I/O counters and the per-disk telemetry gauges
// mirroring them. The package-wide monotonic counters are unaffected (see
// the Stats contract).
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.tel.reads.Set(0)
	d.tel.writes.Set(0)
}

// BlocksInUse returns the number of blocks holding written data. It is
// backend-dependent: a MemStore reports its allocated pages exactly, from
// its counter; so does any other store listing extents, by their number;
// the rest report the high-water block count from Size.
func (d *Disk) BlocksInUse() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if m, ok := d.store.(*MemStore); ok && m.pageSize == d.blockSize {
		return m.PagesInUse()
	}
	if l, ok := d.store.(ExtentLister); ok {
		return len(l.Extents(d.blockSize))
	}
	size, err := d.store.Size()
	if err != nil {
		return 0
	}
	return int((size + int64(d.blockSize) - 1) / int64(d.blockSize))
}

// Array is an ordered set of disks sharing a block size and a Backend. It
// supports the add/remove operations RAID level migration performs.
type Array struct {
	mu sync.RWMutex
	// blockSize is fixed at construction and shared by every disk, so it
	// carries no guard annotation.
	blockSize int
	// disks is republished whole after every change (Attach, RemoveLast,
	// both under mu) and never modified in place, so Disk(i) — asked several
	// times per block I/O — is one atomic load and any slice it yields stays
	// valid without the lock.
	disks   atomic.Pointer[[]*Disk]
	nextID  int                 //c56:guardedby mu
	backend Backend             //c56:guardedby mu
	reg     *telemetry.Registry //c56:guardedby mu
	tr      *telemetry.Tracer   //c56:guardedby mu

	// faults/retryMax/retryBase remember the array-wide fault scenario and
	// retry policy so disks attached later with Add() join them.
	faults    *FaultConfig  //c56:guardedby mu
	retryMax  int           //c56:guardedby mu
	retryBase time.Duration //c56:guardedby mu

	// stripeLocks is the stripe exclusion of every driver over these disks
	// (see StripeLock), ready at the zero value.
	stripeLocks [stripeLockShards]stripeLock
}

// stripeLockShards is how many locks an array's stripes share. A writer waits
// only for an exclusive holder on its own shard, and those are rare and short,
// so the count has only to keep the workers of a bulk pass, which take runs of
// consecutive stripes, off each other: 64 padded locks are 4 KiB an array.
const stripeLockShards = 64

// stripeLock is one shard, padded to a cache line so that shared holders of
// different shards do not pass a line back and forth.
type stripeLock struct {
	sync.RWMutex
	_ [40]byte
}

// StripeLock returns the lock of stripe st, the disk rows [st*r, (st+1)*r) of
// every disk, r being the rows of a stripe of the code the array is or is
// becoming: raid5 over m disks and the online migrator use r = m = p-1, raid6
// its geometry's rows, so all three lock the same thing. Stripes 64 apart
// share a lock.
//
// A delta writer — Swap on a data block, then Xor of the delta into each
// parity — holds the stripe shared: such writers commute. Whoever computes a
// parity or a lost block from a snapshot of other blocks — a degraded,
// reconstruct- or full-stripe write, rebuild, scrub, conversion, a
// reconstructing read, a verify — holds it exclusive: between a delta writer's
// Swap and its last Xor, data and parity are one delta apart. A healthy
// single-block read takes nothing.
//
// Hold at most one stripe at a time. Never re-enter: exported array operations
// acquire, and what runs under a held stripe calls forms documented "stripe
// held". Take the stripe before Disk.mu or a driver's own lock, never after.
// An RWMutex does not upgrade: a delta write that meets a degradable error
// drops shared and is made again, as a snapshot write, under exclusive.
//
//c56:noalloc
func (a *Array) StripeLock(st int64) *sync.RWMutex {
	return &a.stripeLocks[uint64(st)%stripeLockShards].RWMutex
}

// NewArray returns an array of n fresh memory-backed disks.
func NewArray(n, blockSize int) *Array {
	a, err := NewArrayBackend(n, blockSize, MemBackend{})
	if err != nil {
		// MemBackend.Open never fails.
		panic(err)
	}
	return a
}

// NewArrayBackend returns an array of n disks whose stores come from the
// given backend (slots 0..n-1). Stores that already hold data — reopened
// file images — keep their contents.
func NewArrayBackend(n, blockSize int, b Backend) (*Array, error) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return NewArrayFrom(blockSize, b, ids)
}

// NewArrayFrom assembles an array over the backend's stores for the given
// slot ids, in order — the reopen path for durable arrays, where the slot
// set on media (including a diagonal-parity disk added by an interrupted
// migration) decides the geometry. Opened stores are closed again if a
// later open fails.
func NewArrayFrom(blockSize int, b Backend, ids []int) (*Array, error) {
	if b == nil {
		b = MemBackend{}
	}
	a := &Array{blockSize: blockSize, backend: b}
	disks := make([]*Disk, 0, len(ids))
	for _, id := range ids {
		s, err := b.Open(id, blockSize)
		if err != nil {
			a.disks.Store(&disks)
			_ = a.Close()
			return nil, fmt.Errorf("vdisk: opening store for disk %d: %w", id, err)
		}
		disks = append(disks, NewDiskStore(id, blockSize, s))
		if id >= a.nextID {
			a.nextID = id + 1
		}
	}
	a.disks.Store(&disks)
	return a, nil
}

// all returns the current disks; the slice is never modified.
//
//c56:noalloc
func (a *Array) all() []*Disk {
	if p := a.disks.Load(); p != nil {
		return *p
	}
	return nil
}

// Backend returns the array's store backend (MemBackend for the default
// in-memory arrays). The facade uses it to detect durable arrays and
// thread the migration journal to their directory.
func (a *Array) Backend() Backend {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.backend
}

// BlockSize returns the shared block size.
//
//c56:noalloc
func (a *Array) BlockSize() int { return a.blockSize }

// Len returns the number of disks.
func (a *Array) Len() int { return len(a.all()) }

// Disk returns disk i.
//
//c56:noalloc
func (a *Array) Disk(i int) *Disk { return a.all()[i] }

// Add appends a fresh disk and returns it (the "add a new disk to the
// array" step of the paper's Algorithm 2). It panics if the backend cannot
// mint the slot's store; use Attach to handle that error — memory-backed
// arrays never fail.
func (a *Array) Add() *Disk {
	d, err := a.Attach()
	if err != nil {
		panic(err)
	}
	return d
}

// Attach appends a fresh disk, minting its store from the array's backend,
// and returns it. It is Add with the backend error surfaced.
func (a *Array) Attach() (*Disk, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	backend := a.backend
	if backend == nil {
		backend = MemBackend{}
	}
	s, err := backend.Open(a.nextID, a.blockSize)
	if err != nil {
		return nil, fmt.Errorf("vdisk: opening store for disk %d: %w", a.nextID, err)
	}
	d := NewDiskStore(a.nextID, a.blockSize, s)
	if a.reg != nil || a.tr != nil {
		d.bindTelemetry(a.reg, a.tr)
	}
	if a.faults != nil {
		cfg := *a.faults
		cfg.Seed = derivedSeed(a.faults.Seed, d.id)
		_ = d.SetFaults(cfg) // cfg was validated when the array armed it
	}
	if a.retryMax > 0 || a.retryBase > 0 {
		_ = d.SetRetry(a.retryMax, a.retryBase)
	}
	a.nextID++
	disks := append(slices.Clone(a.all()), d)
	a.disks.Store(&disks)
	return d, nil
}

// Sync flushes every non-failed disk to stable media — the array-wide
// durability barrier the migration journal orders its watermark records
// behind. Failed disks are skipped (their contents are dead anyway and the
// journal parks the migration at its watermark); the first store error is
// returned.
func (a *Array) Sync() error {
	for _, d := range a.all() {
		if d.Failed() {
			continue
		}
		if err := d.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every disk's backing store and returns the first error.
// The array is unusable after.
func (a *Array) Close() error {
	var first error
	for _, d := range a.all() {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RemoveLast detaches and returns the last disk (the RAID-6 → RAID-5
// conversion direction). It returns nil if the array is empty.
func (a *Array) RemoveLast() *Disk {
	a.mu.Lock()
	defer a.mu.Unlock()
	disks := a.all()
	if len(disks) == 0 {
		return nil
	}
	rest := slices.Clone(disks[:len(disks)-1])
	a.disks.Store(&rest)
	return disks[len(disks)-1]
}

// FailedDisks returns the slot indices of fail-stopped disks, in order.
// It is the substrate of the observability plane's array health checker: an
// empty result means every disk accepts I/O.
func (a *Array) FailedDisks() []int {
	var failed []int
	for i, d := range a.all() {
		if d.Failed() {
			failed = append(failed, i)
		}
	}
	return failed
}

// TotalStats sums the stats of all disks.
func (a *Array) TotalStats() Stats {
	var t Stats
	for _, d := range a.all() {
		s := d.Stats()
		t.Reads += s.Reads
		t.Writes += s.Writes
	}
	return t
}

// ResetStats zeroes every disk's counters.
func (a *Array) ResetStats() {
	for _, d := range a.all() {
		d.ResetStats()
	}
}
