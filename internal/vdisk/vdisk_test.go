package vdisk

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestReadUnwrittenIsZero(t *testing.T) {
	d := NewDisk(0, 8)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := d.Read(3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 8)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDisk(1, 4)
	want := []byte{9, 8, 7, 6}
	if err := d.Write(10, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := d.Read(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// The disk must not alias caller buffers.
	want[0] = 0
	if err := d.Read(10, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatal("disk aliases caller's write buffer")
	}
	if d.BlocksInUse() != 1 {
		t.Fatalf("BlocksInUse = %d", d.BlocksInUse())
	}
}

func TestBadRequests(t *testing.T) {
	d := NewDisk(0, 4)
	if err := d.Read(-1, make([]byte, 4)); !errors.Is(err, ErrBadBlock) {
		t.Errorf("negative read: %v", err)
	}
	if err := d.Read(0, make([]byte, 3)); !errors.Is(err, ErrBadBlock) {
		t.Errorf("short buf: %v", err)
	}
	if err := d.Write(0, make([]byte, 5)); !errors.Is(err, ErrBadBlock) {
		t.Errorf("long write: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewDisk(0) should panic")
			}
		}()
		NewDisk(0, 0)
	}()
}

func TestFailAndReplace(t *testing.T) {
	d := NewDisk(0, 4)
	if err := d.Write(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if !d.Failed() {
		t.Fatal("Failed() false after Fail")
	}
	if err := d.Read(0, make([]byte, 4)); !errors.Is(err, ErrFailed) {
		t.Errorf("read on failed disk: %v", err)
	}
	if err := d.Write(0, make([]byte, 4)); !errors.Is(err, ErrFailed) {
		t.Errorf("write on failed disk: %v", err)
	}
	d.Replace()
	if d.Failed() {
		t.Fatal("still failed after Replace")
	}
	// The new drive holds nothing yet: its blocks are stale, not zeros, until
	// written, and its medium kept nothing of the old one.
	buf := make([]byte, 4)
	if err := d.Read(0, buf); !errors.Is(err, ErrStale) || !IsDegradable(err) {
		t.Fatalf("read of a replaced disk's block = %v, want ErrStale", err)
	}
	if _, err := d.Store().ReadAt(buf, 0); err != nil || !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatalf("replacement medium reads %v (%v), want zeros", buf, err)
	}
	if err := d.Write(0, []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, buf); err != nil || !bytes.Equal(buf, []byte{5, 6, 7, 8}) {
		t.Fatalf("read after rewrite: %v (%v)", buf, err)
	}
}

func TestLatentErrors(t *testing.T) {
	d := NewDisk(0, 4)
	if err := d.Write(5, []byte{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	d.InjectLatentError(5)
	if err := d.Read(5, make([]byte, 4)); !errors.Is(err, ErrLatent) {
		t.Errorf("latent read: %v", err)
	}
	// Rewriting remaps the sector.
	if err := d.Write(5, []byte{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(5, make([]byte, 4)); err != nil {
		t.Errorf("read after rewrite: %v", err)
	}
}

func TestStats(t *testing.T) {
	d := NewDisk(0, 4)
	buf := make([]byte, 4)
	_ = d.Read(0, buf)
	_ = d.Write(0, buf)
	_ = d.Write(1, buf)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 2 || s.Total() != 3 {
		t.Fatalf("stats %+v", s)
	}
	// Failed I/O is not counted.
	d.Fail()
	_ = d.Read(0, buf)
	if d.Stats().Reads != 1 {
		t.Fatal("failed read counted")
	}
	d.Replace()
	d.ResetStats()
	if d.Stats().Total() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestTrim(t *testing.T) {
	d := NewDisk(0, 4)
	_ = d.Write(7, []byte{1, 2, 3, 4})
	d.Trim(7)
	buf := make([]byte, 4)
	if err := d.Read(7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4)) {
		t.Fatal("trimmed block not zero")
	}
}

func TestArrayAddRemove(t *testing.T) {
	a := NewArray(4, 4)
	if a.Len() != 4 {
		t.Fatalf("len %d", a.Len())
	}
	d := a.Add()
	if a.Len() != 5 || d.ID() != 4 {
		t.Fatalf("after Add: len %d id %d", a.Len(), d.ID())
	}
	got := a.RemoveLast()
	if got != d || a.Len() != 4 {
		t.Fatal("RemoveLast mismatch")
	}
	// IDs keep increasing even after removal (no reuse).
	if a.Add().ID() != 5 {
		t.Fatal("disk ID reused")
	}
	empty := &Array{blockSize: 4}
	if empty.RemoveLast() != nil {
		t.Fatal("RemoveLast on empty should be nil")
	}
}

func TestArrayStats(t *testing.T) {
	a := NewArray(2, 4)
	buf := make([]byte, 4)
	_ = a.Disk(0).Write(0, buf)
	_ = a.Disk(1).Read(0, buf)
	s := a.TotalStats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("total stats %+v", s)
	}
	a.ResetStats()
	if a.TotalStats().Total() != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

// TestConcurrentAccess exercises the disk under parallel readers and
// writers; run with -race to validate locking.
func TestConcurrentAccess(t *testing.T) {
	d := NewDisk(0, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			buf := make([]byte, 8)
			for j := 0; j < 200; j++ {
				buf[0] = seed
				if err := d.Write(int64(j%10), buf); err != nil {
					t.Error(err)
					return
				}
				if err := d.Read(int64(j%10), buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(i))
	}
	wg.Wait()
	if d.Stats().Total() != 8*200*2 {
		t.Fatalf("stats %+v", d.Stats())
	}
}

// TestStripeLockTable: a stripe has one lock, whoever asks; neighbouring
// stripes have different ones, so holding one exclusive leaves the next free;
// and each lock has cache lines to itself.
func TestStripeLockTable(t *testing.T) {
	a := NewArray(3, 16)
	if a.StripeLock(5) != a.StripeLock(5) || a.StripeLock(5) != a.StripeLock(5+stripeLockShards) {
		t.Error("stripe 5 does not map to one lock, shared with the stripe a table's length along")
	}
	seen := map[*sync.RWMutex]bool{}
	for st := int64(0); st < stripeLockShards; st++ {
		seen[a.StripeLock(st)] = true
	}
	if len(seen) != stripeLockShards {
		t.Errorf("%d consecutive stripes share %d locks", stripeLockShards, len(seen))
	}
	a.StripeLock(5).Lock()
	if !a.StripeLock(6).TryRLock() {
		t.Fatal("stripe 6 cannot be taken while stripe 5 is held")
	}
	a.StripeLock(6).RUnlock()
	if a.StripeLock(5).TryRLock() {
		t.Fatal("stripe 5 was taken shared while held exclusive")
	}
	a.StripeLock(5).Unlock()
	if size := reflect.TypeOf(stripeLock{}).Size(); size%64 != 0 {
		t.Errorf("a stripe lock is %d bytes, not a whole number of 64-byte cache lines", size)
	}
}

// TestLockRunHoldsItsStripes: a run holds exactly its stripes' shards — across
// the wrap at 64 too — and a run of 64 stripes or more holds every shard.
func TestLockRunHoldsItsStripes(t *testing.T) {
	a := NewArray(1, 512)
	for _, run := range [][2]int64{{3, 4}, {60, 72}, {0, 64}, {130, 250}} {
		a.LockRun(run[0], run[1])
		for s := int64(0); s < stripeLockShards; s++ {
			want := run[1]-run[0] >= stripeLockShards
			for st := run[0]; st < run[1]; st++ {
				want = want || st%stripeLockShards == s
			}
			lk := a.StripeLock(s)
			if held := !lk.TryLock(); held != want {
				t.Errorf("run [%d, %d): shard %d held %v, want %v", run[0], run[1], s, held, want)
			} else if !held {
				lk.Unlock()
			}
		}
		a.UnlockRun(run[0], run[1])
		for s := int64(0); s < stripeLockShards; s++ {
			if lk := a.StripeLock(s); !lk.TryLock() {
				t.Fatalf("run [%d, %d): shard %d still held after UnlockRun", run[0], run[1], s)
			} else {
				lk.Unlock()
			}
		}
	}
}
