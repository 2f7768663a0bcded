package vdisk

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"code56/internal/bufpool"
	"code56/internal/xorblk"
)

// Snapshot format: a versioned binary stream so simulated arrays (and
// mid-migration states) can be persisted and restored across runs.
//
//	magic "C56VDSK1"
//	array: uint32 diskCount, uint32 blockSize
//	per disk: uint32 id, uint8 failed,
//	          uint32 nBlocks,  nBlocks × (int64 addr, blockSize bytes)
//	          uint32 nLatent,  nLatent × int64 addr
//
// Save and Load go through the BlockStore seam, so snapshots work
// uniformly across backends: a memory array can be restored onto files
// (LoadBackend) and vice versa, and fault-injection state travels with
// the disk regardless of where the bytes live.
var snapshotMagic = [8]byte{'C', '5', '6', 'V', 'D', 'S', 'K', '1'}

// ErrBadSnapshot is returned when Load encounters a malformed stream.
var ErrBadSnapshot = errors.New("vdisk: bad snapshot")

// Save serializes the array — contents, failure states, latent errors and
// I/O-neutral metadata — to w.
func (a *Array) Save(w io.Writer) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(a.all()))); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(a.blockSize)); err != nil {
		return err
	}
	for _, d := range a.all() {
		if err := d.save(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// extents enumerates the disk's written block addresses through the store:
// exact allocated pages when the store lists extents, otherwise the dense
// high-water range with all-zero blocks skipped (a zero block is
// indistinguishable from an unwritten one — sparse semantics). Caller
// holds d.mu.
func (d *Disk) extents() ([]int64, error) {
	if l, ok := d.store.(ExtentLister); ok {
		return l.Extents(d.blockSize), nil
	}
	size, err := d.store.Size()
	if err != nil {
		return nil, err
	}
	n := (size + int64(d.blockSize) - 1) / int64(d.blockSize)
	buf := bufpool.Get(d.blockSize)
	defer bufpool.Put(buf)
	addrs := make([]int64, 0, n)
	for b := int64(0); b < n; b++ {
		if _, err := d.store.ReadAt(buf, b*int64(d.blockSize)); err != nil {
			return nil, err
		}
		if !xorblk.IsZero(buf) {
			addrs = append(addrs, b)
		}
	}
	return addrs, nil
}

func (d *Disk) save(w io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := binary.Write(w, binary.LittleEndian, uint32(d.id)); err != nil {
		return err
	}
	failed := uint8(0)
	if d.failed {
		failed = 1
	}
	if err := binary.Write(w, binary.LittleEndian, failed); err != nil {
		return err
	}
	addrs, err := d.extents()
	if err != nil {
		return fmt.Errorf("vdisk: snapshotting disk %d: %w", d.id, err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(addrs))); err != nil {
		return err
	}
	buf := bufpool.Get(d.blockSize)
	defer bufpool.Put(buf)
	for _, b := range addrs {
		if err := binary.Write(w, binary.LittleEndian, b); err != nil {
			return err
		}
		if _, err := d.store.ReadAt(buf, b*int64(d.blockSize)); err != nil {
			return fmt.Errorf("vdisk: snapshotting disk %d block %d: %w", d.id, b, err)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	lat := make([]int64, 0, len(d.latent))
	for b := range d.latent {
		lat = append(lat, b)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if err := binary.Write(w, binary.LittleEndian, uint32(len(lat))); err != nil {
		return err
	}
	for _, b := range lat {
		if err := binary.Write(w, binary.LittleEndian, b); err != nil {
			return err
		}
	}
	return nil
}

// Load reconstructs a memory-backed array from a snapshot written by Save.
// I/O counters start at zero (they describe activity, not state).
func Load(r io.Reader) (*Array, error) {
	return LoadBackend(r, MemBackend{})
}

// LoadBackend reconstructs an array from a snapshot onto the given
// backend's stores — the cross-backend restore path (e.g. rehydrating a
// memory snapshot onto durable files). Block contents are written through
// each store's WriteAt without touching I/O stats.
func LoadBackend(r io.Reader, backend Backend) (*Array, error) {
	if backend == nil {
		backend = MemBackend{}
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	var diskCount, blockSize uint32
	if err := binary.Read(br, binary.LittleEndian, &diskCount); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := binary.Read(br, binary.LittleEndian, &blockSize); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if blockSize == 0 || blockSize > 1<<30 || diskCount > 1<<16 {
		return nil, fmt.Errorf("%w: implausible geometry (%d disks, %d-byte blocks)", ErrBadSnapshot, diskCount, blockSize)
	}
	a := &Array{blockSize: int(blockSize), backend: backend}
	var disks []*Disk
	maxID := -1
	for i := uint32(0); i < diskCount; i++ {
		d, err := loadDisk(br, int(blockSize), backend)
		if err != nil {
			a.disks.Store(&disks)
			_ = a.Close()
			return nil, err
		}
		disks = append(disks, d)
		if d.id > maxID {
			maxID = d.id
		}
	}
	a.disks.Store(&disks)
	a.nextID = maxID + 1
	return a, nil
}

func loadDisk(r io.Reader, blockSize int, backend Backend) (*Disk, error) {
	var id uint32
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	var failed uint8
	if err := binary.Read(r, binary.LittleEndian, &failed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	store, err := backend.Open(int(id), blockSize)
	if err != nil {
		return nil, fmt.Errorf("vdisk: opening store for disk %d: %w", id, err)
	}
	d := NewDiskStore(int(id), blockSize, store)
	d.mu.Lock()
	d.setFailed(failed != 0)
	d.mu.Unlock()
	var nBlocks uint32
	if err := binary.Read(r, binary.LittleEndian, &nBlocks); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	buf := bufpool.Get(blockSize)
	defer bufpool.Put(buf)
	for i := uint32(0); i < nBlocks; i++ {
		var addr int64
		if err := binary.Read(r, binary.LittleEndian, &addr); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if addr < 0 {
			return nil, fmt.Errorf("%w: negative block address", ErrBadSnapshot)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if _, err := store.WriteAt(buf, addr*int64(blockSize)); err != nil {
			return nil, fmt.Errorf("vdisk: restoring disk %d block %d: %w", id, addr, err)
		}
	}
	var nLatent uint32
	if err := binary.Read(r, binary.LittleEndian, &nLatent); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for i := uint32(0); i < nLatent; i++ {
		var addr int64
		if err := binary.Read(r, binary.LittleEndian, &addr); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		d.mu.Lock()
		d.latent[addr] = true
		d.mu.Unlock()
	}
	return d, nil
}
