package vdisk

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sync"

	"code56/internal/layout"
	"code56/internal/xorblk"
)

// BlockStore is the media a Disk performs I/O against. The vdisk layer
// keeps the simulation concerns — fault injection, latent sectors, retry
// policies, telemetry — and delegates byte storage to a BlockStore, so the
// same RAID machinery runs over in-memory pages (MemStore), sparse local
// files (internal/vdisk/filestore), or any future backend.
//
// Contract:
//
//   - The store is sparse: reading a byte range that was never written
//     returns zeros, and ReadAt always fills p completely (n == len(p))
//     unless it fails. Stores never return io.EOF for reads past their
//     current size.
//   - WriteAt extends the store as needed; Size reports the high-water
//     mark in bytes (the end of the furthest write).
//   - Sync is a durability barrier: when it returns, every prior WriteAt
//     is on stable media. MemStore's Sync is a no-op by definition.
//   - Close releases the backing resources; the store is unusable after.
//
// Implementations must be safe for concurrent use: the Disk serializes its
// own I/O, but syncs may run from other goroutines.
type BlockStore interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Sync() error
	Close() error
}

// Optional BlockStore capabilities. Disk probes for these with type
// assertions and falls back to portable behavior when absent.
type (
	// Trimmer deallocates a byte range: subsequent reads return zeros.
	// Without it, Disk.Trim falls back to writing zeros.
	Trimmer interface {
		Trim(off, length int64) error
	}
	// Resetter discards all contents, returning the store to its freshly
	// created state (Disk.Replace's "new drive" semantics).
	Resetter interface {
		Reset() error
	}
	// ExtentLister enumerates the allocated block addresses for the given
	// block size, sorted ascending. Disk.BlocksInUse counts them; a
	// store without it reports its high-water block count from Size.
	ExtentLister interface {
		Extents(blockSize int) []int64
	}
	// Xorer is a store that can XOR where the bytes lie, in either direction,
	// so that no copy of them passes through scratch. XorAt folds p into the
	// bytes at off (store ^= p) with WriteAt's effect on Size and allocation:
	// unwritten bytes count as zero, so folding into them stores p.
	// ReadFoldAt is Disk.ReadFold's store call, its blocks bs bytes long and
	// their rows counted from off: it lands each block of the lanes' run on
	// every lane that takes it, with ReadAt's view of the store — unwritten
	// bytes fold nothing and give a first contributor zeros — and a call that
	// fails has not touched acc. Without the capability Disk.Xor reads the
	// block, folds it in scratch and writes it back, and Disk.ReadFold reads
	// the run into scratch and lands it from there.
	Xorer interface {
		XorAt(p []byte, off int64) (int, error)
		ReadFoldAt(acc []byte, off int64, bs int, lanes []layout.FoldRun) error
	}
)

// Backend mints the BlockStore for each disk slot of an array: it is the
// unit of backend selection (the facade's "mem:" | "file:<dir>" specs map
// to MemBackend and filestore.Backend). Open both creates new stores and
// reopens existing ones — a slot id that was written before returns a
// store holding its durable contents.
type Backend interface {
	Open(id, blockSize int) (BlockStore, error)
}

// MemBackend is the default Backend: every slot gets a fresh MemStore.
// Contents do not survive the process; Sync is a no-op.
type MemBackend struct{}

// Open returns a new empty MemStore for the slot.
func (MemBackend) Open(id, blockSize int) (BlockStore, error) {
	return NewMemStore(blockSize), nil
}

// slabPages is the number of pages in one slab: the width of the uint64
// occupancy word, so "which pages of this slab hold data" is one load and
// "how many did this write add" one popcount.
const slabPages = 64

// maxSlabs bounds the directory (8 bytes a slab, so 128 MiB at most): a
// write past slab maxSlabs-1 is refused instead of growing the directory
// until the process dies — one wild block address would otherwise do that.
// At 4 KiB pages the bound is 4 TiB per disk.
const maxSlabs = 1 << 24

// slab is slabPages contiguous pages and their occupancy word. The word is
// the truth: the bytes of a page whose bit is clear are unspecified — a slab
// comes from the free pool as its last owner left it — so a read answers
// zeros for them without looking, and a write that brings a page into use
// clears whatever part of it the write does not cover. data is a mapping the
// collector does not keep alive (mapSlab): no slice of it may outlive the
// store's lock, or it may outlive the mapping.
type slab struct {
	used uint64 // bit i set: page i was written and not trimmed since
	data []byte // slabPages*pageSize bytes
}

// slabPools holds the slabs no store is using, one sync.Pool per slab size
// in bytes (DESIGN §4.13). A slab outlives the store that filled it: Reset,
// Close and a Trim that empties a slab put it here, addSlab takes from here
// before it maps one, and what nobody takes the collector drops and unmaps.
var slabPools sync.Map // int -> *sync.Pool of *slab

func slabPool(slabBytes int) *sync.Pool {
	if p, ok := slabPools.Load(slabBytes); ok {
		return p.(*sync.Pool)
	}
	p, _ := slabPools.LoadOrStore(slabBytes, new(sync.Pool))
	return p.(*sync.Pool)
}

// poisonReleased is false outside this package's tests, which set it to have
// every slab overwritten with 0xA5 on its way to the free pool: a read or
// write that trusts the bytes of an unused page then shows the poison, not
// the zeros a fresh allocation would have hidden it behind.
var poisonReleased bool

// errMemClosed is what I/O on a closed MemStore returns; it matches
// os.ErrClosed, as the filestore's does.
var errMemClosed = fmt.Errorf("vdisk: mem store: %w", os.ErrClosed)

// MemStore is the in-memory BlockStore: sparse, page-granular, backed by
// fixed-size slabs behind a directory indexed by slab number (DESIGN §4.13).
// A ranged read or write is one copy per slab it touches, with no hashing
// and, once the slab exists, no allocation; slabs are recycled through a free
// pool shared by every store of the same page size, so replacing or dropping
// a disk and filling the next allocates nothing either. It is the
// zero-configuration default for tests and simulations, and the reference
// medium the benchmark prices every other layer against.
type MemStore struct {
	mu        sync.RWMutex
	pageSize  int        // fixed at construction
	slabBytes int        // slabPages*pageSize
	free      *sync.Pool // slabPool(slabBytes), fixed at construction
	// slabs is the directory: slabs[i] covers bytes [i*slabBytes,
	// (i+1)*slabBytes) and is nil while none of its pages is in use.
	slabs []*slab //c56:guardedby mu
	// inUse counts the set occupancy bits over all slabs.
	inUse int //c56:guardedby mu
	// size is the high-water mark in bytes.
	size   int64 //c56:guardedby mu
	closed bool  //c56:guardedby mu
}

// NewMemStore returns an empty in-memory store with the given page size
// (the disk's block size; page granularity is what keeps Extents exact).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		panic(fmt.Sprintf("vdisk: invalid mem store page size %d", pageSize))
	}
	sb := slabPages * pageSize
	return &MemStore{pageSize: pageSize, slabBytes: sb, free: slabPool(sb)}
}

// ReadAt fills p from offset off; unwritten ranges read as zero.
//
//c56:noalloc
func (s *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vdisk: mem store read at negative offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, errMemClosed
	}
	for n := 0; n < len(p); {
		si, so, c := s.locate(off+int64(n), int64(len(p)-n))
		if si < int64(len(s.slabs)) && s.slabs[si] != nil {
			s.readSlab(s.slabs[si], p[n:n+c], so)
		} else {
			clear(p[n : n+c])
		}
		n += c
	}
	return len(p), nil
}

// ReadFoldAt lands a run on its lanes (the Xorer capability) straight out of
// the slabs, block by block, so that a block's second taker finds it in L1
// where a ReadAt and a fold would move the run twice. A block is taken in
// pieces split at page boundaries; a piece of a page not in use folds nothing
// and gives a first contributor zeros.
//
//c56:noalloc
func (s *MemStore) ReadFoldAt(acc []byte, off int64, bs int, lanes []layout.FoldRun) error {
	if off < 0 {
		return fmt.Errorf("vdisk: mem store read at negative offset %d", off)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errMemClosed
	}
	lo, hi := span(lanes)
	pos := off + int64(lo*bs)
	pg, in := pos/int64(s.pageSize), int(pos%int64(s.pageSize)) // the page and offset the walk is at
	for row := lo; row < hi; row++ {
		for at := 0; at < bs; {
			c := min(bs-at, s.pageSize-in)
			var src []byte
			if si := pg / slabPages; si < int64(len(s.slabs)) && s.slabs[si] != nil && s.slabs[si].used>>(pg%slabPages)&1 != 0 {
				so := int(pg%slabPages)*s.pageSize + in
				src = s.slabs[si].data[so : so+c]
			}
			landPiece(acc, src, row, at, c, bs, lanes)
			if at, in = at+c, in+c; in == s.pageSize {
				pg, in = pg+1, 0
			}
		}
	}
	return nil
}

// readSlab copies the bytes at offset so of sl to dst: in one piece when every
// page of the range is in use, otherwise page by page, the pages that are not
// reading as zeros.
//
//c56:noalloc
func (s *MemStore) readSlab(sl *slab, dst []byte, so int) {
	ps := s.pageSize
	if mask := pageMask(so/ps, (so+len(dst)-1)/ps); sl.used&mask == mask {
		copy(dst, sl.data[so:so+len(dst)])
		return
	}
	for n := 0; n < len(dst); {
		pos := so + n
		c := min(len(dst)-n, ps-pos%ps)
		if sl.used>>(pos/ps)&1 != 0 {
			copy(dst[n:n+c], sl.data[pos:pos+c])
		} else {
			clear(dst[n : n+c])
		}
		n += c
	}
}

// locate returns the slab holding byte pos, pos's offset in it, and how many
// of the n bytes starting there lie in that slab.
//
//c56:noalloc
func (s *MemStore) locate(pos, n int64) (si int64, so, c int) {
	sb := int64(s.slabBytes)
	si, so = pos/sb, int(pos%sb)
	return si, so, int(min(n, sb-int64(so)))
}

// WriteAt stores p at offset off, taking a slab when the first of its pages
// is written.
//
//c56:noalloc
func (s *MemStore) WriteAt(p []byte, off int64) (int, error) {
	return s.put(p, off, false)
}

// XorAt folds p into the bytes at offset off (the Xorer capability): one XOR
// straight into the slab, where a read, a fold and a WriteAt would move the
// block three times. It allocates and marks pages exactly as WriteAt does.
//
//c56:noalloc
func (s *MemStore) XorAt(p []byte, off int64) (int, error) {
	return s.put(p, off, true)
}

// put is WriteAt (fold false) and XorAt (fold true): the walk, the occupancy
// and the high-water mark are the same, only the move into the slab differs.
//
//c56:noalloc
func (s *MemStore) put(p []byte, off int64, fold bool) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vdisk: mem store write at negative offset %d", off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errMemClosed
	}
	if space := maxSlabs * int64(s.slabBytes); off > space-int64(len(p)) {
		return 0, fmt.Errorf("vdisk: mem store write [%d,+%d) past the %d-byte address space", off, len(p), space)
	}
	for n := 0; n < len(p); {
		si, so, c := s.locate(off+int64(n), int64(len(p)-n))
		if si >= int64(len(s.slabs)) || s.slabs[si] == nil {
			if err := s.addSlab(si); err != nil { //lint:allow noalloc first write into a slab: once per 64 pages, not steady state
				return 0, err
			}
		}
		sl := s.slabs[si]
		if fresh := pageMask(so/s.pageSize, (so+c-1)/s.pageSize) &^ sl.used; fresh != 0 {
			s.admit(sl, so, c, fresh, fold)
		}
		if fold {
			xorblk.Xor(sl.data[so:so+c], p[n:n+c])
		} else {
			copy(sl.data[so:], p[n:n+c])
		}
		n += c
	}
	if end := off + int64(len(p)); end > s.size {
		s.size = end
	}
	return len(p), nil
}

// admit brings the pages of fresh into use ahead of a put of [so, so+c) that
// touches them, clearing what the put will not store itself: nothing when a
// WriteAt covers its pages whole, the uncovered head and tail of its first
// and last page otherwise, and every fresh page before a fold, since folding
// into unwritten bytes stores.
//
//c56:noalloc
//c56:requires mu
func (s *MemStore) admit(sl *slab, so, c int, fresh uint64, fold bool) {
	ps := s.pageSize
	if fold {
		for w := fresh; w != 0; w &= w - 1 {
			pg := bits.TrailingZeros64(w)
			clear(sl.data[pg*ps : (pg+1)*ps])
		}
	} else {
		if first := so / ps; fresh>>first&1 != 0 {
			clear(sl.data[first*ps : so])
		}
		if last := (so + c - 1) / ps; fresh>>last&1 != 0 {
			clear(sl.data[so+c : (last+1)*ps])
		}
	}
	s.inUse += bits.OnesCount64(fresh)
	sl.used |= fresh
}

// addSlab puts a slab with no page in use at si, from the free pool if it
// has one, growing the directory to reach it.
//
//c56:requires mu
func (s *MemStore) addSlab(si int64) error {
	sl, _ := s.free.Get().(*slab)
	if sl == nil {
		var err error
		if sl, err = mapSlab(s.slabBytes); err != nil {
			return err
		}
	}
	if grow := si + 1 - int64(len(s.slabs)); grow > 0 {
		s.slabs = append(s.slabs, make([]*slab, grow)...)
	}
	s.slabs[si] = sl
	return nil
}

// mapSlab mints a slab of n bytes outside the Go heap, so that the disks'
// contents do not count toward the collector's heap goal (DESIGN §4.13). Its
// finalizer unmaps the bytes once nothing holds the slab: no store, and no
// free pool since a collection dropped it.
func mapSlab(n int) (*slab, error) {
	data, err := mapMem(n)
	if err != nil {
		return nil, fmt.Errorf("vdisk: mem store: map a %d-byte slab: %w", n, err)
	}
	mappedBytes.Add(int64(n))
	sl := &slab{data: data}
	runtime.SetFinalizer(sl, unmapSlab)
	return sl, nil
}

// unmapSlab is the finalizer of every slab mapSlab made.
func unmapSlab(sl *slab) {
	if unmapMem(sl.data) == nil {
		mappedBytes.Add(-int64(len(sl.data)))
	}
}

// release hands slab si to the free pool, bytes as they are.
//
//c56:noalloc
//c56:requires mu
func (s *MemStore) release(si int64) {
	sl := s.slabs[si]
	s.slabs[si] = nil
	sl.used = 0
	if poisonReleased {
		for i := range sl.data {
			sl.data[i] = 0xA5
		}
	}
	s.free.Put(sl)
}

// pageMask returns the occupancy bits of pages first..last of a slab.
//
//c56:noalloc
func pageMask(first, last int) uint64 {
	return ^uint64(0) >> (slabPages - 1 - (last - first)) << first
}

// Size returns the high-water mark in bytes.
func (s *MemStore) Size() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size, nil
}

// Sync is a no-op: memory has no separate durable medium.
func (s *MemStore) Sync() error { return nil }

// Close discards the contents; ReadAt, WriteAt, Trim and Reset fail with
// os.ErrClosed afterwards.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drop()
	s.slabs, s.closed = nil, true
	return nil
}

// drop releases every slab and zeroes the counters. The directory stays: it
// is what refilling the store needs.
//
//c56:noalloc
//c56:requires mu
func (s *MemStore) drop() {
	for si, sl := range s.slabs {
		if sl != nil {
			s.release(int64(si))
		}
	}
	s.inUse, s.size = 0, 0
}

// Trim deallocates the fully covered pages and zeroes the partial edges. A
// slab left with no page in use is released.
func (s *MemStore) Trim(off, length int64) error {
	if off < 0 || length < 0 {
		return fmt.Errorf("vdisk: mem store trim [%d,+%d)", off, length)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errMemClosed
	}
	// Nothing is allocated past the directory, so the walk stops there.
	end := min(off+length, int64(len(s.slabs))*int64(s.slabBytes))
	for pos := off; pos < end; {
		si, so, c := s.locate(pos, end-pos)
		pos += int64(c)
		sl := s.slabs[si]
		if sl == nil {
			continue
		}
		// The pages wholly inside [so, so+c), first up to past, lose their
		// bit and keep their bytes; the part of the range in a page it only
		// partly covers is zeroed.
		first, past := (so+s.pageSize-1)/s.pageSize, (so+c)/s.pageSize
		if past > first {
			freed := pageMask(first, past-1) & sl.used
			s.inUse -= bits.OnesCount64(freed)
			if sl.used &^= freed; sl.used == 0 {
				s.release(si)
				continue
			}
		}
		head := min(first*s.pageSize, so+c)
		clear(sl.data[so:head])
		clear(sl.data[max(past*s.pageSize, head) : so+c])
	}
	return nil
}

// Reset discards all contents (Disk.Replace's fresh-drive semantics): the
// slabs go to the free pool, which is where refilling the store finds them.
//
//c56:noalloc
func (s *MemStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errMemClosed
	}
	s.drop()
	return nil
}

// Extents returns the allocated block addresses, ascending. When blockSize
// differs from the store's page size the occupancy bits do not line up, so
// enumeration falls back to the dense range implied by Size (the Disk
// always constructs its MemStore with its own block size, so the exact path
// is the one taken in practice).
func (s *MemStore) Extents(blockSize int) []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if blockSize != s.pageSize {
		n := (s.size + int64(blockSize) - 1) / int64(blockSize)
		out := make([]int64, 0, n)
		for b := int64(0); b < n; b++ {
			out = append(out, b)
		}
		return out
	}
	out := make([]int64, 0, s.inUse)
	for si, sl := range s.slabs {
		if sl == nil {
			continue
		}
		for w := sl.used; w != 0; w &= w - 1 {
			out = append(out, int64(si)*slabPages+int64(bits.TrailingZeros64(w)))
		}
	}
	return out
}

// PagesInUse returns the number of allocated pages: Disk.BlocksInUse for
// memory-backed disks, kept as a counter so asking costs no walk.
func (s *MemStore) PagesInUse() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inUse
}
