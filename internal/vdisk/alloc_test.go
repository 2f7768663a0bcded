package vdisk

import (
	"fmt"
	"testing"

	"code56/internal/layout"
)

// The healthy-path disk I/O methods carry //c56:noalloc annotations —
// raid6's zero-allocation stripe paths sit directly on top of them — and
// c56-lint proves them allocation-free statically. These AllocsPerRun
// assertions are the runtime half of that contract; fault paths (latent
// injection, retries, fail-stop) are exempt by design and exercised in
// faults_test.go instead.
func TestHealthyDiskIOAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	a := NewArray(3, 4096)
	buf := make([]byte, a.BlockSize())
	for i := range buf {
		buf[i] = byte(i)
	}
	d := a.Disk(0)
	run := make([]byte, 3*a.BlockSize())
	if err := d.WriteBlocks(4, run); err != nil { // warm the backing page map
		t.Fatal(err)
	}
	old := make([]byte, a.BlockSize())
	lanes := []layout.FoldRun{{N: 3, First: true}, {Row: 1, N: 2}} // blocks 5 and 6 taken twice
	portable := NewDiskStore(9, a.BlockSize(), noFold{NewMemStore(a.BlockSize())})
	if err := portable.Write(5, buf); err != nil {
		t.Fatal(err)
	}
	stale := NewDisk(8, a.BlockSize())
	stale.MarkStale(0)
	staleErr := fmt.Errorf("%w: disk 8 block 5", ErrStale)
	for name, fn := range map[string]func(){
		"Disk.Read": func() {
			if err := d.Read(5, buf); err != nil {
				t.Fatalf("Read: %v", err)
			}
		},
		"Disk.Write": func() {
			if err := d.Write(5, buf); err != nil {
				t.Fatalf("Write: %v", err)
			}
		},
		"Disk.ReadBlocks": func() {
			if err := d.ReadBlocks(4, run); err != nil {
				t.Fatalf("ReadBlocks: %v", err)
			}
		},
		"Disk.ReadFold": func() {
			if err := d.ReadFold(4, run, lanes); err != nil {
				t.Fatalf("ReadFold: %v", err)
			}
		},
		"Disk.ReadFold/portable": func() {
			if err := portable.ReadFold(4, run, lanes); err != nil {
				t.Fatalf("ReadFold over a store without ReadFoldAt: %v", err)
			}
		},
		"Disk.WriteBlocks": func() {
			if err := d.WriteBlocks(4, run); err != nil {
				t.Fatalf("WriteBlocks: %v", err)
			}
		},
		"Disk.Swap": func() {
			if err := d.Swap(5, buf, old); err != nil {
				t.Fatalf("Swap: %v", err)
			}
		},
		"Disk.Xor": func() {
			if err := d.Xor(5, buf); err != nil {
				t.Fatalf("Xor: %v", err)
			}
		},
		"Disk.Xor/portable": func() {
			if err := portable.Xor(5, buf); err != nil {
				t.Fatalf("Xor over a store without XorAt: %v", err)
			}
		},
		"Disk.Xor/stale": func() {
			if err := stale.Xor(5, buf); err != nil {
				t.Fatalf("Xor into a stale block: %v", err)
			}
		},
		"IsDegradable": func() {
			if !IsDegradable(staleErr) {
				t.Fatal("ErrStale is not degradable")
			}
		},
		"Disk.Failed":       func() { _ = d.Failed() },
		"Disk.Stale":        func() { _ = d.Stale(0, 8) },
		"Disk.Stale/marked": func() { _ = stale.Stale(0, 8) },
		"Array.Disk":        func() { _ = a.Disk(0) },
		"Array.BlockSize":   func() { _ = a.BlockSize() },
		"Array.StripeLock": func() {
			lk := a.StripeLock(7)
			lk.RLock()
			lk.RUnlock()
		},
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}

// TestDiskReplaceRefillAllocationFree: a replaced disk's slabs go to the free
// pool and come back as it is rewritten, so in steady state the cycle the
// benchmark's rebuild runs — blank the drive, write every block — allocates
// no slab, no directory and no latent-sector table. The store's half of the
// cycle allocates nothing at all; the disk's adds the attribute list of
// Replace's trace event.
func TestDiskReplaceRefillAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const bs, blocks = 4096, 3*slabPages + 16
	d := NewDisk(0, bs)
	run := make([]byte, 16*bs)
	refill := func() {
		for b := int64(0); b < blocks; b += 16 {
			if err := d.WriteBlocks(b, run); err != nil {
				t.Fatalf("WriteBlocks: %v", err)
			}
		}
	}
	refill()
	store := d.store.(*MemStore)
	if n := testing.AllocsPerRun(20, func() {
		if err := store.Reset(); err != nil {
			t.Fatal(err)
		}
		refill()
	}); n != 0 {
		t.Errorf("MemStore.Reset and refill allocates %.1f times per cycle, want 0", n)
	}
	// Replace is held to its one allocation, not to none, so it carries no
	// //c56:noalloc and is called through a value the cross-check of the two
	// (internal/lint) does not read as a pin.
	replace := d.Replace
	if n := testing.AllocsPerRun(20, func() { replace(); refill() }); n > 1 {
		t.Errorf("Disk.Replace and refill allocates %.1f times per cycle, want at most the trace event's 1", n)
	}
	if got := d.BlocksInUse(); got != blocks {
		t.Errorf("BlocksInUse = %d after a refill, want %d", got, blocks)
	}
}
