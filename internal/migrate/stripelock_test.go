package migrate

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"code56/internal/raid5"
)

// The tests in this file pin what the stripe lock (vdisk.Array.StripeLock) is
// to the migrator: the one exclusion between a write and the conversion — or
// a reconstructing read — of its stripe, and nothing more than that.

// TestStripeLockMigratorReadWithDiskDown: with a data disk failed in the
// middle of a migration, a read through the migrator of a block of that disk
// nobody writes returns the block every time while another block of its row
// takes writes — in a converted stripe, where a write is three disk
// operations, and in one not yet converted. It fails at the commit before the
// lock: the reconstruction read the row between a write's Swap and its Xor.
func TestStripeLockMigratorReadWithDiskDown(t *testing.T) {
	const m, bs, stripes, rounds, reads = 4, 1024, 8, 10, 400
	rows := int64(m * stripes)
	a := newFilledRAID5(t, m, bs, raid5.LeftAsymmetric, rows, 91, nil)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Paused before it starts, the migration stands still with the new disk
	// attached; the test converts the first half of the stripes itself.
	ctx, cancel := context.WithCancel(context.Background())
	mig.Pause()
	if err := mig.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	for st := int64(0); st < stripes/2; st++ {
		if err := mig.convertStripe(st); err != nil {
			t.Fatal(err)
		}
	}
	// One block a stripe on the disk that will fail, each with a peer in its row.
	_, down := a.Locate(1 * m * (m - 1))
	want := bytes.Repeat([]byte{0xC3}, bs)
	type pair struct{ read, write int64 }
	var pairs []pair
	for _, st := range []int64{1, 6} { // converted, and not
		for L := st * m * (m - 1); ; L++ {
			if _, disk := a.Locate(L); disk == down {
				peer := L + 1
				if peer%(m-1) == 0 {
					peer = L - 1 // stay in the row
				}
				pairs = append(pairs, pair{L, peer})
				break
			}
		}
	}
	for _, p := range pairs {
		if err := mig.Write(p.read, want); err != nil {
			t.Fatal(err)
		}
	}
	a.Disks().Disk(down).Fail()

	got := make([]byte, bs)
	for _, p := range pairs {
		for round := 0; round < rounds; round++ {
			var wg sync.WaitGroup
			var done atomic.Bool
			start := make(chan struct{}) // reader and writer leave together
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; !done.Load(); i++ {
					if err := mig.Write(p.write, bytes.Repeat([]byte{byte(round), byte(i)}, bs/2)); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()
			close(start)
			wrong := 0
			for i := 0; i < reads; i++ {
				if err := mig.Read(p.read, got); err != nil || !bytes.Equal(got, want) {
					wrong++
				}
			}
			done.Store(true)
			wg.Wait()
			if wrong > 0 {
				t.Fatalf("block %d, round %d: %d of %d degraded reads of a block nobody wrote came back wrong", p.read, round, wrong, reads)
			}
		}
	}
	cancel()
	if err := mig.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestStripeLockWriteWaitsOnlyForItsStripe: while something holds a stripe
// exclusive — here the test, standing in for that stripe's conversion — a
// write to another stripe completes and a write to that stripe waits, and
// completes once the stripe is released; before the migration and after it.
func TestStripeLockWriteWaitsOnlyForItsStripe(t *testing.T) {
	const m, rows = 4, 4 * 8
	a, want := newLoadedRAID5(t, m, rows, 92)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x77}, 32)
	write := func(st int64) chan error {
		L := st * m * (m - 1)
		want[L] = data
		done := make(chan error, 1)
		go func() { done <- mig.Write(L, data) }()
		return done
	}
	for _, phase := range []string{"before the migration", "after it"} {
		lk := a.Disks().StripeLock(2)
		lk.Lock()
		select {
		case err := <-write(3):
			if err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a write to stripe 3 waits for stripe 2", phase)
		}
		held := write(2)
		select {
		case err := <-held:
			t.Fatalf("%s: a write to stripe 2 went through (err %v) while the stripe was held exclusive", phase, err)
		case <-time.After(20 * time.Millisecond):
		}
		lk.Unlock()
		if err := <-held; err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if phase == "before the migration" {
			if err := mig.Start(); err != nil {
				t.Fatal(err)
			}
			if err := mig.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	verifyConverted(t, mig, want, rows/m, "held stripe")
}

// TestStripeLockPauseResumeCancelUnderWriters: Pause, Resume and cancellation
// land promptly — without waiting out a one-second throttle, and without a
// deadlock — while four writers keep the stripe locks busy, and the writers go
// on through a paused and a cancelled migration.
func TestStripeLockPauseResumeCancelUnderWriters(t *testing.T) {
	const m, rows = 4, 4 * 64
	a, want := newLoadedRAID5(t, m, rows, 93)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(time.Second)
	converted := make(chan struct{}, 1)
	mig.SetProgressFunc(func(c, total int64) {
		select {
		case converted <- struct{}{}:
		default:
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := mig.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		for !stop.Load() {
			hammer(t, mig, want, rows*(m-1), 4, 50, 400)
		}
	}()
	prompt := func(what string, fn func()) {
		t.Helper()
		start := time.Now()
		fn()
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("%s took %v under writers with a 1s throttle armed", what, d)
		}
	}
	<-converted // a worker is in, or about to enter, its throttle sleep
	prompt("Pause", mig.Pause)
	frozen, _ := mig.Progress()
	prompt("Resume", mig.Resume)
	prompt("cancel and Wait", func() {
		cancel()
		if err := mig.Wait(); !errors.Is(err, context.Canceled) {
			t.Errorf("Wait = %v, want context.Canceled", err)
		}
	})
	stop.Store(true)
	<-writersDone
	if got, total := mig.Progress(); got < frozen || got >= total {
		t.Errorf("watermark %d of %d after the cancel, %d at the pause: want a migration stopped midway", got, total, frozen)
	}
	buf := make([]byte, 32)
	for L, w := range want {
		if err := mig.Read(L, buf); err != nil || !bytes.Equal(buf, w) {
			t.Fatalf("block %d does not read its last acknowledged write (err %v)", L, err)
		}
	}
	for row := int64(0); row < rows; row++ {
		if ok, err := a.VerifyRow(row); err != nil || !ok {
			t.Fatalf("row %d inconsistent (ok=%v err=%v)", row, ok, err)
		}
	}
}
