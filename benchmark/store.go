package main

import (
	"fmt"
	"sync/atomic"

	"code56/internal/vdisk"
)

// The benchmark puts its own stores between the array and a backend's
// stores twice: to time every call (trace.go) and to keep the file
// workload's flushes off the device (below). Both must look to the array
// exactly like the store they wrap.

// keepCapabilities returns outer with exactly the optional capabilities
// (Trimmer, Resetter, ExtentLister) of inner, the store it wraps:
// vdisk.Disk probes for them by type assertion, so a wrapper that hid one
// would change Trim/Replace/BlocksInUse, and one that invented one would
// have to emulate it. The repo's two stores have all three (MemStore) or
// the first two (filestore.Store); any other set is refused rather than
// silently flattened.
func keepCapabilities(outer, inner vdisk.BlockStore) (vdisk.BlockStore, error) {
	tr, hasT := inner.(vdisk.Trimmer)
	rs, hasR := inner.(vdisk.Resetter)
	el, hasE := inner.(vdisk.ExtentLister)
	switch {
	case hasT && hasR && hasE:
		return struct {
			vdisk.BlockStore
			vdisk.Trimmer
			vdisk.Resetter
			vdisk.ExtentLister
		}{outer, tr, rs, el}, nil
	case hasT && hasR && !hasE:
		return struct {
			vdisk.BlockStore
			vdisk.Trimmer
			vdisk.Resetter
		}{outer, tr, rs}, nil
	case !hasT && !hasR && !hasE:
		return outer, nil
	}
	return nil, fmt.Errorf("benchmark: no wrapper for a %T's capability set (trim=%v reset=%v extents=%v)", inner, hasT, hasR, hasE)
}

// dirBackend is what the facade type-asserts to find an array's directory
// and attach the migration WAL (attachJournalIfDurable).
type dirBackend interface{ Dir() string }

// withDir is a wrapping backend over a directory-backed one: it forwards
// Dir(), without which NewMigrator would silently run unjournaled and the
// benchmark would measure a different program.
type withDir struct {
	vdisk.Backend
	dir dirBackend
}

func (b withDir) Dir() string { return b.dir.Dir() }

// keepDir gives outer the Dir() of inner, if inner has one.
func keepDir(outer, inner vdisk.Backend) vdisk.Backend {
	if d, ok := inner.(dirBackend); ok {
		return withDir{outer, d}
	}
	return outer
}

// wrapBackend puts the timing backend around inner, keeping its Dir().
func wrapBackend(inner vdisk.Backend, t *tracer) vdisk.Backend {
	return keepDir(timedBackend{inner: inner, t: t}, inner)
}

// flushlessStore is a disk image whose durability barrier is counted and
// then dropped: every other call reaches the file. The file workload uses it
// in both runs, because on the recorded host the device's flush time is not
// the program's to answer for: an fsync of a disk image takes 0.2 ms in one
// minute and 2 ms in the next, conversion at the default checkpoint interval
// spends 70 % of its time in them, and convert_mbps on real fsync moved
// between 92 and 517 MB/s in runs of the same code (README, "Flush policy").
// What a change does to the number of barriers shows in store.sync_calls and
// wal.syncs, which repeat exactly.
type flushlessStore struct {
	vdisk.BlockStore
	dropped *atomic.Int64
}

func (s flushlessStore) Sync() error {
	s.dropped.Add(1)
	return nil
}

// flushlessBackend mints flushlessStores over another backend's stores.
type flushlessBackend struct {
	inner   vdisk.Backend
	dropped *atomic.Int64
}

func (b flushlessBackend) Open(id, blockSize int) (vdisk.BlockStore, error) {
	s, err := b.inner.Open(id, blockSize)
	if err != nil {
		return nil, err
	}
	return keepCapabilities(flushlessStore{s, b.dropped}, s)
}
