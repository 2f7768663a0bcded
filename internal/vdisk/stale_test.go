package vdisk

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"code56/internal/layout"
)

// staleDisk is a disk of eight written blocks, 0x10+b each, whose blocks from
// 4 on are marked stale and then 4, 5 and 7 written again: block 6 is the one
// stale block of 0..7, and every block from 8 on is stale too.
func staleDisk(t *testing.T, store BlockStore) *Disk {
	t.Helper()
	d := NewDiskStore(0, 16, store)
	for b := int64(0); b < 8; b++ {
		if err := d.Write(b, bytes.Repeat([]byte{0x10 + byte(b)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	d.MarkStale(4)
	for _, b := range []int64{4, 5, 7} {
		if err := d.Write(b, bytes.Repeat([]byte{0x10 + byte(b)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	return d
}

// TestStaleRunIsAllOrNothing: a ranged read, a read-fold or a swap that
// touches one stale block fails whole with ErrStale naming it, a degradable
// error, and counts no I/O and makes no draw on the fault injector: a twin
// disk that never asked meets the same faults from then on.
func TestStaleRunIsAllOrNothing(t *testing.T) {
	cfg := FaultConfig{Seed: 11, ReadTransientProb: 0.5}
	d, twin := staleDisk(t, NewMemStore(16)), staleDisk(t, NewMemStore(16))
	for _, disk := range []*Disk{d, twin} {
		if err := disk.SetFaults(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run := bytes.Repeat([]byte{0xEE}, 4*16)
	for what, err := range map[string]error{
		"ReadBlocks": d.ReadBlocks(3, run),
		"ReadFold":   d.ReadFold(3, run, []layout.FoldRun{{N: 4, First: true}, {Row: 2, N: 2, Acc: 1}}),
		"Swap":       d.Swap(6, make([]byte, 16), run[:16]),
		"Read":       d.Read(100, run[:16]),
	} {
		if !errors.Is(err, ErrStale) || !IsDegradable(err) {
			t.Errorf("%s across a stale block = %v, want ErrStale", what, err)
		} else if what != "Read" && !strings.Contains(err.Error(), "block 6") {
			t.Errorf("%s: %q does not name block 6", what, err)
		}
	}
	if !bytes.Equal(run, bytes.Repeat([]byte{0xEE}, 4*16)) {
		t.Error("a refused run changed the caller's buffer")
	}
	if st := d.Stats(); st.Total() != 0 {
		t.Errorf("refused calls counted %+v", st)
	}
	buf := make([]byte, 16)
	for i := 0; i < 40; i++ {
		b := int64(i % 6)
		if e1, e2 := d.Read(b, buf), twin.Read(b, buf); (e1 == nil) != (e2 == nil) {
			t.Fatalf("read %d: %v beside the twin's %v: the refused calls drew on the injector", i, e1, e2)
		}
	}

	// A fail-stopped disk says so, stale or not.
	d.Fail()
	if err := d.Read(6, buf); !errors.Is(err, ErrFailed) {
		t.Errorf("read of a stale block on a failed disk = %v, want ErrFailed", err)
	}
	if err := d.Xor(6, buf); !errors.Is(err, ErrFailed) {
		t.Errorf("xor into a stale block on a failed disk = %v, want ErrFailed", err)
	}
}

// TestStaleXorIsDropped: an Xor into a stale block succeeds and does nothing —
// no I/O counted, the block still stale — in place or through a store that
// cannot fold, and never allocates.
func TestStaleXorIsDropped(t *testing.T) {
	for name, store := range map[string]BlockStore{"in-place": NewMemStore(16), "portable": noFold{NewMemStore(16)}} {
		d := staleDisk(t, store)
		delta := bytes.Repeat([]byte{0xFF}, 16)
		if err := d.Xor(6, delta); err != nil {
			t.Fatalf("%s: Xor into a stale block: %v", name, err)
		}
		if st := d.Stats(); st.Total() != 0 {
			t.Errorf("%s: dropped Xor counted %+v", name, st)
		}
		if err := d.Read(6, make([]byte, 16)); !errors.Is(err, ErrStale) {
			t.Errorf("%s: block read %v after the Xor, want it still stale", name, err)
		}
		if err := d.Xor(5, delta); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		if err := d.Read(5, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x15 ^ 0xFF}, 16)) {
			t.Errorf("%s: Xor into a rewritten block: %x (%v)", name, got, err)
		}
		if raceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := d.Xor(6, delta); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Xor into a stale block allocates %.1f times, want 0", name, n)
		}
	}
}

// TestWriteBlocksEndsStale: a write ends the stale state of exactly the
// blocks it stores; MarkStale restores every block below its mark; and a disk
// rewritten in address order keeps no more than a word of its map.
func TestWriteBlocksEndsStale(t *testing.T) {
	d := NewDisk(0, 16)
	d.Replace()
	if err := d.WriteBlocks(2, make([]byte, 3*16)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	for b := int64(0); b < 7; b++ {
		err := d.Read(b, buf)
		if written := b >= 2 && b < 5; written != (err == nil) {
			t.Errorf("block %d: read %v after WriteBlocks(2, 3 blocks)", b, err)
		}
	}
	d.MarkStale(3)
	for b := int64(0); b < 5; b++ {
		if err := d.Read(b, buf); (b < 3) != (err == nil) {
			t.Errorf("block %d: read %v after MarkStale(3)", b, err)
		}
	}
	run := make([]byte, 10*16)
	for b := int64(3); b < 1003; b += 10 {
		if err := d.WriteBlocks(b, run); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ReadBlocks(0, make([]byte, 1003*16)); err != nil {
		t.Errorf("read of every rewritten block: %v", err)
	}
	if err := d.Read(1003, buf); !errors.Is(err, ErrStale) {
		t.Errorf("block past the rewrite reads %v, want ErrStale", err)
	}
	if d.staleFrom < 3+15*64 || len(d.fresh) > 1 {
		t.Errorf("stale from %d with %d words of map after an in-order rewrite, want the map folded into the mark", d.staleFrom, len(d.fresh))
	}
}

// TestStaleXorTakesNoLock: an Xor into a block no write has reached since the
// mark returns while the disk's lock is held elsewhere — by a rebuild's store
// call on the same disk, say.
func TestStaleXorTakesNoLock(t *testing.T) {
	d := staleDisk(t, NewMemStore(16))
	d.mu.Lock()
	defer d.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- d.Xor(100, make([]byte, 16)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Xor into a stale block: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an Xor into a stale block waited for the disk's lock")
	}
}
