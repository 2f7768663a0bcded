package migrate

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"code56/internal/parallel"
	"code56/internal/raid6"
	"code56/internal/vdisk"
)

// TestThrottleCancellationReturnsQuickly: a cancelled migration must not
// sleep out its throttle interval. With a 1-second throttle and a
// cancellation after the first stripe, Wait has to return in milliseconds
// (the throttle sleep used to be a bare time.Sleep).
func TestThrottleCancellationReturnsQuickly(t *testing.T) {
	const rows = 64
	a, _ := newLoadedRAID5(t, 4, rows, 71)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mig.SetProgressFunc(func(converted, total int64) {
		if converted >= 1 {
			cancel()
		}
	})
	if err := mig.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = mig.Wait()
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Wait took %v with a 1s throttle; the cancelled sleep was not interrupted", elapsed)
	}
}

// TestPauseInterruptsThrottleSleep: Pause must park a worker sleeping in
// its throttle interval instead of waiting the interval out.
func TestPauseInterruptsThrottleSleep(t *testing.T) {
	const rows = 64
	a, _ := newLoadedRAID5(t, 4, rows, 72)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(time.Second)
	converted := make(chan struct{}, rows)
	mig.SetProgressFunc(func(c, total int64) {
		select {
		case converted <- struct{}{}:
		default:
		}
	})
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	<-converted // the worker is now in (or about to enter) its throttle sleep
	start := time.Now()
	mig.Pause()
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("Pause took %v; the throttle sleep was not interrupted", elapsed)
	}
	mig.SetThrottle(0) // let the rest of the conversion finish promptly
	mig.Resume()
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSetThrottleMidFlightWakesSleepingWorkers: a concurrent throttle
// update — the bandwidth timetable's schedule boundaries do exactly this —
// must wake workers sleeping out the old interval immediately, including
// the change to 0 (off). With a 30-second throttle armed and a switch to
// off after the first stripe, the whole conversion has to finish in well
// under one old interval. Several goroutines retune concurrently so the
// race detector exercises SetThrottle against the sleeping workers.
func TestSetThrottleMidFlightWakesSleepingWorkers(t *testing.T) {
	const rows = 64
	a, _ := newLoadedRAID5(t, 4, rows, 74)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(30 * time.Second)
	converted := make(chan struct{}, rows)
	mig.SetProgressFunc(func(c, total int64) {
		select {
		case converted <- struct{}{}:
		default:
		}
	})
	start := time.Now()
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	<-converted // at least one worker has entered (or is entering) its sleep
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(ms int) {
			defer wg.Done()
			mig.SetThrottle(time.Duration(ms) * time.Millisecond)
		}(i)
	}
	wg.Wait()
	mig.SetThrottle(0) // off: nobody may finish the old 30s interval
	if got := mig.Throttle(); got != 0 {
		t.Fatalf("Throttle() = %v after SetThrottle(0)", got)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("conversion took %v with the throttle turned off after the first stripe; sleeping workers were not woken", elapsed)
	}
	if converted, total := mig.Progress(); converted != total {
		t.Fatalf("converted %d/%d stripes", converted, total)
	}
}

// TestConversionHealsLatentErrors: latent sector errors in stripes the
// conversion walks are reconstructed from RAID-5 redundancy and rewritten,
// counted in FaultsRepaired, and gone afterwards.
func TestConversionHealsLatentErrors(t *testing.T) {
	const rows = 16
	a, want := newLoadedRAID5(t, 4, rows, 73)
	// Two latent errors on data cells (Locate only maps data blocks), on
	// distinct disks and rows — RAID-5 reconstructs at most one per row.
	type loc struct {
		row  int64
		disk int
	}
	var bad []loc
	seenDisk := map[int]bool{}
	seenRow := map[int64]bool{}
	for L := int64(0); L < rows*3 && len(bad) < 2; L++ {
		row, disk := a.Locate(L)
		if seenDisk[disk] || seenRow[row] {
			continue
		}
		seenDisk[disk] = true
		seenRow[row] = true
		a.Disks().Disk(disk).InjectLatentError(row)
		bad = append(bad, loc{row, disk})
	}

	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := mig.Stats().FaultsRepaired; got != 2 {
		t.Fatalf("FaultsRepaired = %d, want 2", got)
	}
	// The medium is healed: direct reads succeed again.
	buf := make([]byte, 32)
	for _, b := range bad {
		if err := a.Disks().Disk(b.disk).Read(b.row, buf); err != nil {
			t.Fatalf("latent block (disk %d, row %d) not rewritten: %v", b.disk, b.row, err)
		}
	}
	verifyConverted(t, mig, want, rows/4, "latent-heal")
}

// TestConversionSurvivesTransientErrors: transient faults beyond the retry
// budget are served by reconstruction; the conversion completes and the
// result verifies.
func TestConversionSurvivesTransientErrors(t *testing.T) {
	const rows = 32
	a, want := newLoadedRAID5(t, 4, rows, 74)
	if err := a.Disks().SetRetry(2, 0); err != nil {
		t.Fatal(err)
	}
	err := a.Disks().SetFaults(vdisk.FaultConfig{Seed: 8, ReadTransientProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().SetFaults(vdisk.FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	verifyConverted(t, mig, want, rows/4, "transient-survive")
}

// TestWriteServesDegradedOldValue: an application write whose old-value
// read hits a latent sector error reconstructs the old data, keeps the
// diagonal parity coherent, and clears the error by rewriting.
func TestWriteServesDegradedOldValue(t *testing.T) {
	const rows = 16
	a, want := newLoadedRAID5(t, 4, rows, 75)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}

	// Damage a block after conversion, then overwrite it through the
	// migrator: the read-modify-write must reconstruct the old value to
	// compute parity deltas.
	const logical = 7
	row, disk := a.Locate(logical)
	a.Disks().Disk(disk).InjectLatentError(row)
	data := bytes.Repeat([]byte{0xAB}, 32)
	if err := mig.Write(logical, data); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	want[logical] = data
	verifyConverted(t, mig, want, rows/4, "degraded-write")
}

// TestHealDoesNotClobberConcurrentWrites races application writes against
// the conversion's latent-block heals: every data row carries a latent
// error, and the foreground overwrites each such block while the conversion
// is reconstructing and rewriting it. The heal must never overwrite a
// racing write's fresh data with the stale reconstructed old value (which
// would also leave the RAID-5 parity, already updated for the new data,
// inconsistent with the block).
func TestHealDoesNotClobberConcurrentWrites(t *testing.T) {
	const rows = 64 // 16 stripes at p=5
	a, want := newLoadedRAID5(t, 4, rows, 77)
	// One latent data cell per row (RAID-5 reconstructs at most one lost
	// block per row), so nearly every stripe's conversion takes the heal
	// path while the writes below race it.
	type loc struct {
		logical int64
		row     int64
		disk    int
	}
	var bad []loc
	seenRow := map[int64]bool{}
	for L := int64(0); L < rows*3; L++ {
		row, disk := a.Locate(L)
		if seenRow[row] {
			continue
		}
		seenRow[row] = true
		a.Disks().Disk(disk).InjectLatentError(row)
		bad = append(bad, loc{L, row, disk})
	}
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(78))
	for _, b := range bad {
		data := make([]byte, 32)
		r.Read(data)
		if err := mig.Write(b.logical, data); err != nil {
			t.Fatalf("racing write %d: %v", b.logical, err)
		}
		want[b.logical] = data
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	verifyConverted(t, mig, want, rows/4, "heal-vs-write")
}

// TestKillAndResumeSurvivesDiskFailure is the acceptance scenario: latent
// errors on two disks plus a whole-disk failure mid-conversion. The
// conversion heals the latent errors, parks at its watermark when the disk
// dies, serves reads degraded, and after Replace + rebuild a second
// migrator resumes from the watermark. A final scrub and full read-back
// prove zero data loss.
func TestKillAndResumeSurvivesDiskFailure(t *testing.T) {
	const (
		m       = 4
		rows    = 32 // 8 Code 5-6 stripes
		stripes = rows / m
	)
	a, want := newLoadedRAID5(t, m, rows, 76)

	// Latent errors on two data cells in stripes 0-1 (the conversion walks
	// every data cell there before the disk dies), on distinct disks and
	// rows — RAID-5 reconstructs at most one lost block per row.
	planted := 0
	seenDisk := map[int]bool{}
	seenRow := map[int64]bool{}
	for L := int64(0); L < rows*(m-1) && planted < 2; L++ {
		row, disk := a.Locate(L)
		if row >= 2*m || seenDisk[disk] || seenRow[row] {
			continue
		}
		seenDisk[disk] = true
		seenRow[row] = true
		a.Disks().Disk(disk).InjectLatentError(row)
		planted++
	}
	if planted != 2 {
		t.Fatalf("planted %d latent errors, want 2", planted)
	}
	// Disk 2 fail-stops at its 14th I/O after arming — mid-conversion.
	if err := a.Disks().Disk(2).SetFaults(vdisk.FaultConfig{Seed: 5, FailAtIO: 14}); err != nil {
		t.Fatal(err)
	}

	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	err = mig.Wait()
	if !errors.Is(err, vdisk.ErrFailed) {
		t.Fatalf("Wait = %v, want the scheduled disk failure", err)
	}
	watermark, total := mig.Progress()
	if watermark == 0 || watermark >= total {
		t.Fatalf("watermark %d of %d; the failure should hit mid-conversion", watermark, total)
	}
	if got := mig.Stats().FaultsRepaired; got != 2 {
		t.Fatalf("FaultsRepaired = %d, want both latent errors healed before the disk died", got)
	}

	// Degraded service: every block still readable with disk 2 down.
	buf := make([]byte, 32)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatalf("degraded read %d: %v", L, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("degraded read %d wrong", L)
		}
	}

	// Hot-swap and rebuild, then resume from the watermark.
	a.Disks().Disk(2).Replace()
	if err := a.Rebuild(2, rows); err != nil {
		t.Fatal(err)
	}
	mig2, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig2.ResumeFrom(watermark); err != nil {
		t.Fatal(err)
	}
	if err := mig2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig2.Wait(); err != nil {
		t.Fatalf("resumed conversion: %v", err)
	}

	r6 := verifyConverted(t, mig2, want, stripes, "kill-and-resume")
	rep, err := r6.ScrubContextMode(context.Background(), stripes, raid6.ScrubCheck, parallel.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("final scrub found damage: %+v", rep)
	}
}

// TestSecondFailureMidMigration: with half the stripes converted, two data
// disks fail. Every block of a converted stripe still reads back and takes
// writes through the migrator, as RAID-6 does; a block of a stripe not yet
// converted reads right or returns an error, never wrong bytes, and a write
// to such a stripe is refused whole. The conversion then stops on the dead
// disks.
func TestSecondFailureMidMigration(t *testing.T) {
	const m, stripes = 4, 16
	rows := int64(m * stripes)
	a, want := newLoadedRAID5(t, m, rows, 79)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(time.Millisecond)
	half := make(chan struct{})
	var once sync.Once
	mig.SetProgressFunc(func(done, total int64) {
		if done >= stripes/2 {
			once.Do(func() { close(half) })
		}
	})
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	<-half
	mig.Pause()
	converted, _ := mig.Progress()
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(2).Fail()

	buf := make([]byte, 32)
	for L, w := range want {
		row, disk := a.Locate(L)
		err := mig.Read(L, buf)
		switch {
		case row/m < converted:
			if err != nil || !bytes.Equal(buf, w) {
				t.Fatalf("block %d of converted stripe %d with disks 0 and 2 down: err=%v, right bytes=%v", L, row/m, err, bytes.Equal(buf, w))
			}
		case err == nil && !bytes.Equal(buf, w):
			t.Fatalf("block %d of unconverted stripe %d read wrong bytes", L, row/m)
		case err == nil && (disk == 0 || disk == 2):
			t.Fatalf("block %d of unconverted stripe %d on a dead disk read without an error", L, row/m)
		}
	}
	r := rand.New(rand.NewSource(80))
	for L := range want {
		row, _ := a.Locate(L)
		data := make([]byte, 32)
		r.Read(data)
		err := mig.Write(L, data)
		if row/m < converted {
			if err != nil {
				t.Fatalf("write of block %d of converted stripe %d: %v", L, row/m, err)
			}
			want[L] = data
		} else if err == nil {
			t.Fatalf("write of block %d of unconverted stripe %d with two disks down succeeded", L, row/m)
		}
	}
	for L, w := range want {
		if row, _ := a.Locate(L); row/m >= converted {
			continue
		}
		if err := mig.Read(L, buf); err != nil || !bytes.Equal(buf, w) {
			t.Fatalf("block %d after the writes: err=%v", L, err)
		}
	}
	mig.Resume()
	if err := mig.Wait(); !errors.Is(err, vdisk.ErrFailed) {
		t.Fatalf("Wait = %v, want the conversion stopped on a dead disk", err)
	}
}
