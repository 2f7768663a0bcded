package migrate

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"code56/internal/bufpool"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/vdisk"
	"code56/internal/vdisk/filestore"
)

// poolBalanced checks, when the test ends, that bufpool.InFlight() is back where
// it was: every buffer rented on the way — on the error returns an injected
// fault takes, above all — went back to the pool.
func poolBalanced(t testing.TB) {
	t.Helper()
	base := bufpool.InFlight()
	t.Cleanup(func() {
		if got := bufpool.InFlight(); got != base {
			t.Errorf("bufpool.InFlight() = %d at the end of the test, %d at its start: a rental leaked", got, base)
		}
	})
}

// newLoadedRAID5 builds a RAID-5 of m disks with `rows` rows of random data
// and returns the array plus the expected block contents. The test it builds
// it for must leave the buffer pool balanced.
func newLoadedRAID5(t *testing.T, m int, rows int64, seed int64) (*raid5.Array, map[int64][]byte) {
	t.Helper()
	poolBalanced(t)
	a, err := raid5.New(m, 32, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	want := make(map[int64][]byte)
	for L := int64(0); L < rows*int64(m-1); L++ {
		b := make([]byte, 32)
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	return a, want
}

func verifyConverted(t *testing.T, mig *OnlineMigrator, want map[int64][]byte, stripes int64, ctx string) *raid6.Array {
	t.Helper()
	r6, err := mig.Result()
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	for st := int64(0); st < stripes; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if !ok {
			t.Fatalf("%s: stripe %d inconsistent after online conversion", ctx, st)
		}
	}
	buf := make([]byte, 32)
	for L, w := range want {
		if err := mig.Read(L, buf); err != nil {
			t.Fatalf("%s: read %d: %v", ctx, L, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("%s: block %d corrupted", ctx, L)
		}
	}
	return r6
}

func TestOnlineMigrationQuiet(t *testing.T) {
	const rows = 16 // 4 stripes at p=5
	a, want := newLoadedRAID5(t, 4, rows, 1)
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
	if c, total := mig.Progress(); c != total || total != 4 {
		t.Fatalf("progress %d/%d, want 4/4", c, total)
	}
	verifyConverted(t, mig, want, 4, "quiet")
}

// hammer runs `writers` goroutines of `ops` random reads and writes each
// through the migrator and waits for them. Writer w writes only the blocks
// that are w modulo writers, so the writers overlap each other in time — and in
// rows and stripes — yet every block has one last acknowledged write, which
// want is brought up to.
func hammer(t *testing.T, mig *OnlineMigrator, want map[int64][]byte, blocks, writers, ops int, seed int64) {
	t.Helper()
	wrote := make([]map[int64][]byte, writers)
	var wg sync.WaitGroup
	for w := range wrote {
		wrote[w] = make(map[int64][]byte)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(w)))
			buf := make([]byte, 32)
			for i := 0; i < ops; i++ {
				if r.Intn(3) == 0 {
					if err := mig.Read(int64(r.Intn(blocks)), buf); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				L := int64(r.Intn(blocks/writers)*writers + w)
				b := make([]byte, 32)
				r.Read(b)
				if err := mig.Write(L, b); err != nil {
					t.Error(err)
					return
				}
				wrote[w][L] = b
			}
		}()
	}
	wg.Wait()
	for _, m := range wrote {
		for L, b := range m {
			want[L] = b
		}
	}
}

// TestOnlineMigrationUnderLoad drives concurrent reads and writes while the
// conversion runs (run with -race). Afterwards every stripe must verify and
// every block must hold its final written value; no stripe was converted
// twice.
func TestOnlineMigrationUnderLoad(t *testing.T) {
	const (
		m       = 6 // p = 7
		rows    = 6 * 8
		blocks  = rows * (m - 1)
		writers = 4
	)
	a, want := newLoadedRAID5(t, m, rows, 2)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Pause before Start so the workers park before converting anything:
	// the write below then provably lands while the conversion is live,
	// making the WriteInterrupts assertion deterministic (on a fast machine
	// the 8-stripe conversion can otherwise finish before any writer
	// goroutine is scheduled).
	mig.Pause()
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	guaranteed := make([]byte, 32)
	for i := range guaranteed {
		guaranteed[i] = 0x5A
	}
	if err := mig.Write(0, guaranteed); err != nil {
		t.Fatal(err)
	}
	want[0] = guaranteed
	mig.Resume()

	hammer(t, mig, want, blocks, writers, 150, 100)
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	st := mig.Stats()
	if st.StripesConverted != 8 || st.StripesRedone != 0 {
		t.Errorf("stats: %d stripes converted, %d redone, want each of the 8 once", st.StripesConverted, st.StripesRedone)
	}
	if st.WriteInterrupts == 0 {
		t.Error("stats: no write interrupts recorded under concurrent load")
	}
	// Writes after the conversion finished must also maintain RAID-6
	// consistency.
	post := make([]byte, 32)
	for i := range post {
		post[i] = 0xAB
	}
	if err := mig.Write(3, post); err != nil {
		t.Fatal(err)
	}
	want[3] = post
	verifyConverted(t, mig, want, rows/(m), "under load")
}

func TestOnlineMigrationRejectsBadSetups(t *testing.T) {
	a, _ := raid5.New(5, 32, raid5.LeftAsymmetric) // 5+1 = 6 not prime
	if _, err := NewOnlineMigrator(a, 5); err == nil {
		t.Error("non-prime disk count accepted")
	}
	c, _ := raid5.New(4, 32, raid5.LeftAsymmetric)
	if _, err := NewOnlineMigrator(c, 5); err == nil {
		t.Error("non-multiple row count accepted")
	}
	if _, err := NewOnlineMigrator(c, 0); err == nil {
		t.Error("zero rows accepted")
	}
	mig, err := NewOnlineMigrator(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mig.Result(); err == nil {
		t.Error("Result before conversion accepted")
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err == nil {
		t.Error("double Start accepted")
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	if err := mig.Write(999999, buf); err == nil {
		t.Error("write beyond migrated region accepted")
	}
}

// TestBidirectional converts RAID-5 → RAID-6 → RAID-5 and checks the data
// still reads back through the RAID-5 view (the paper's §IV-A: downgrading
// is deleting the last column).
func TestBidirectional(t *testing.T) {
	const rows = 8
	a, want := newLoadedRAID5(t, 4, rows, 3)
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
	r6 := verifyConverted(t, mig, want, 2, "pre-downgrade")
	if err := Downgrade(r6); err != nil {
		t.Fatal(err)
	}
	if a.Disks().Len() != 4 {
		t.Fatalf("disk count %d after downgrade, want 4", a.Disks().Len())
	}
	buf := make([]byte, 32)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d corrupted by downgrade", L)
		}
	}
	for st := int64(0); st < rows/4; st++ {
		ok, err := a.VerifyStripe(st)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("RAID-5 stripe %d inconsistent after downgrade", st)
		}
	}
}

// TestDoubleFailureAfterMigration is the paper's motivation end to end: a
// RAID-5 cannot survive two disk failures, but after online migration to
// Code 5-6 the same data does.
func TestDoubleFailureAfterMigration(t *testing.T) {
	const rows = 16
	a, want := newLoadedRAID5(t, 4, rows, 4)
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
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	r6.Disks().Disk(1).Fail()
	r6.Disks().Disk(3).Fail()
	buf := make([]byte, 32)
	// Degraded reads must still serve every RAID-5-addressed block. The
	// RAID-5 path cannot (two failures); the RAID-6 view can, using the
	// shared disk layout: RAID-5 (row, disk) is cell (row mod p-1, disk)
	// of stripe row/(p-1).
	p := mig.Code().P()
	for L, w := range want {
		row, disk := a.Locate(L)
		cell := layout.Coord{Row: int(row % int64(p-1)), Col: disk}
		if err := r6.ReadCell(row/int64(p-1), cell, buf); err != nil {
			t.Fatalf("degraded read %d: %v", L, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("degraded read %d wrong contents", L)
		}
	}
	// Rebuild both disks and verify full recovery.
	r6.Disks().Disk(1).Replace()
	r6.Disks().Disk(3).Replace()
	if err := r6.RebuildContext(context.Background(), rows/4, []int{1, 3}, parallel.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	for L, w := range want {
		if err := mig.Read(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong after double-failure rebuild", L)
		}
	}
}

// TestOnlineMigrationDiskFailureSurfaces: a disk failing mid-conversion
// must surface as a clean error from Wait (no hang, no panic). A real
// deployment would pause and rebuild; the migrator's job is to stop
// coherently.
func TestOnlineMigrationDiskFailureSurfaces(t *testing.T) {
	a, _ := newLoadedRAID5(t, 4, 4*64, 9)
	mig, err := NewOnlineMigrator(a, 4*64)
	if err != nil {
		t.Fatal(err)
	}
	a.Disks().Disk(2).Fail() // fails before conversion starts
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err == nil {
		t.Fatal("conversion with a failed disk should report an error")
	}
	if _, err := mig.Result(); err == nil {
		t.Fatal("Result after failed conversion should error")
	}
}

// TestPauseResumeAndProgress: Pause parks the conversion at a stripe
// boundary while application I/O continues; Resume completes it; the
// progress callback fires once per stripe.
func TestPauseResumeAndProgress(t *testing.T) {
	const rows = 4 * 8
	a, want := newLoadedRAID5(t, 4, rows, 21)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	mig.SetProgressFunc(func(done, total int64) {
		mu.Lock()
		calls++
		mu.Unlock()
		if total != 8 || done < 1 || done > 8 {
			t.Errorf("progress %d/%d out of range", done, total)
		}
	})
	mig.SetThrottle(time.Millisecond)
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	mig.Pause()
	frozen, _ := mig.Progress()
	// Application I/O proceeds while paused.
	b := make([]byte, 32)
	for i := range b {
		b[i] = 0x5A
	}
	if err := mig.Write(1, b); err != nil {
		t.Fatal(err)
	}
	want[1] = b
	if got, _ := mig.Progress(); got != frozen {
		t.Errorf("progress moved from %d to %d while paused", frozen, got)
	}
	mig.Resume()
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	gotCalls := calls
	mu.Unlock()
	// One call per committed stripe, those committed before the pause landed
	// (frozen of them, usually none) included.
	if gotCalls != 8 {
		t.Errorf("progress callback fired %d times, want 8 (%d before the pause)", gotCalls, frozen)
	}
	verifyConverted(t, mig, want, 8, "pause/resume")
}

// TestResumedMigrationReportsThisRunsRate: the mean rate and the ETA of a
// resumed migration come from the stripes this run converted, not from the
// watermark it resumed at (90 of 100 here, which read as ninety stripes
// converted in the first milliseconds).
func TestResumedMigrationReportsThisRunsRate(t *testing.T) {
	const m, stripes, from = 4, 100, 90
	a, _ := newLoadedRAID5(t, m, m*stripes, 25)
	mig, err := NewOnlineMigrator(a, m*stripes)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.ResumeFrom(from); err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(time.Millisecond)
	some := make(chan struct{})
	var once sync.Once
	mig.SetProgressFunc(func(done, total int64) {
		if done >= from+3 {
			once.Do(func() { close(some) })
		}
	})
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	<-some
	mig.Pause()
	pr := mig.ProgressSnapshot()
	mig.Resume()
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	ran := float64(pr.Stats.StripesConverted)
	if pr.Converted < from+3 || ran < 3 || ran > stripes-from {
		t.Fatalf("snapshot %+v: want a resumed migration a few stripes in", pr)
	}
	if got := pr.StripesPerSec * pr.Elapsed.Seconds(); got > ran+0.5 {
		t.Errorf("mean rate %.0f stripes/s over %v is %.1f stripes; this run converted %.0f (watermark %d)",
			pr.StripesPerSec, pr.Elapsed, got, ran, pr.Converted)
	}
	if want := time.Duration(float64(pr.Total-pr.Converted) / ran * float64(pr.Elapsed)); pr.ETA < want*9/10 {
		t.Errorf("ETA %v for %d stripes at %.0f stripes in %v, want about %v", pr.ETA, pr.Total-pr.Converted, ran, pr.Elapsed, want)
	}
}

// TestPauseBeforeFinishIsSafe: pausing right around completion must not
// hang.
func TestPauseAroundCompletion(t *testing.T) {
	const rows = 4
	a, _ := newLoadedRAID5(t, 4, rows, 22)
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
	mig.Pause() // after completion: returns immediately
	mig.Resume()
}

// TestCrashResumeFromSnapshot: migrate a file-backed array halfway, copy its
// directory aside ("crash"), reopen the copy as a fresh process would, resume
// from the saved cursor, and verify the final RAID-6 — the durability story
// for long migrations.
func TestCrashResumeFromSnapshot(t *testing.T) {
	const rows = 4 * 10
	dir := t.TempDir()
	fb, err := filestore.NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, err := vdisk.NewArrayBackend(4, 32, fb)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	a, err := raid5.Wrap(live, 4, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64][]byte)
	r := rand.New(rand.NewSource(23))
	for L := int64(0); L < rows*3; L++ {
		b := make([]byte, 32)
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Pause the moment the 4th stripe completes.
	paused := make(chan struct{})
	var once sync.Once
	mig.SetProgressFunc(func(done, total int64) {
		if done == 4 {
			once.Do(func() { close(paused) })
		}
	})
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	<-paused
	mig.Pause()
	cursor, _ := mig.Progress()
	if cursor < 4 {
		t.Fatalf("cursor %d after 4 stripes", cursor)
	}

	// "Crash": copy the disk images aside mid-migration.
	crashed := t.TempDir()
	ids, err := filestore.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		img, err := os.ReadFile(filepath.Join(dir, filestore.DiskFileName(id)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, filestore.DiskFileName(id)), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mig.Resume()
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}

	// Reopen the copy and resume on a fresh process's state.
	cb, err := filestore.NewBackend(crashed)
	if err != nil {
		t.Fatal(err)
	}
	disks, err := vdisk.NewArrayFrom(32, cb, ids)
	if err != nil {
		t.Fatal(err)
	}
	defer disks.Close()
	restored, err := raid5.Wrap(disks, 4, raid5.LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	mig2, err := NewOnlineMigrator(restored, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig2.ResumeFrom(cursor); err != nil {
		t.Fatal(err)
	}
	if err := mig2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig2.Wait(); err != nil {
		t.Fatal(err)
	}
	if disks.Len() != 5 {
		t.Fatalf("resumed migration has %d disks, want 5 (no duplicate add)", disks.Len())
	}
	verifyConverted(t, mig2, want, 10, "crash-resume")

	// ResumeFrom validation.
	mig3, _ := NewOnlineMigrator(restored, rows)
	if err := mig3.ResumeFrom(-1); err == nil {
		t.Error("negative resume cursor accepted")
	}
	if err := mig3.ResumeFrom(999); err == nil {
		t.Error("out-of-range resume cursor accepted")
	}
}

// TestParallelMigrationUnderLoad runs the conversion with 4 concurrent
// stripe workers while application reads and writes hammer the array
// (run with -race). Everything must verify afterwards.
func TestParallelMigrationUnderLoad(t *testing.T) {
	const (
		m      = 6
		rows   = 6 * 16
		blocks = rows * (m - 1)
	)
	a, want := newLoadedRAID5(t, m, rows, 31)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	if err := mig.SetParallelism(0); err == nil {
		t.Fatal("parallelism 0 accepted")
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.SetParallelism(2); err == nil {
		t.Fatal("SetParallelism after Start accepted")
	}

	hammer(t, mig, want, blocks, 4, 200, 300)
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	if c, total := mig.Progress(); c != total {
		t.Fatalf("progress %d/%d after Wait", c, total)
	}
	if st := mig.Stats(); st.StripesConverted != 16 || st.StripesRedone != 0 {
		t.Errorf("stats: %d stripes converted, %d redone, want each of the 16 once", st.StripesConverted, st.StripesRedone)
	}
	verifyConverted(t, mig, want, 16, "parallel under load")
}

// TestParallelQuietMatchesSerial: with no application traffic, parallel and
// serial conversions produce byte-identical arrays.
func TestParallelQuietMatchesSerial(t *testing.T) {
	const rows = 4 * 6
	a1, _ := newLoadedRAID5(t, 4, rows, 37)
	a2, _ := newLoadedRAID5(t, 4, rows, 37) // same seed, same contents
	m1, err := NewOnlineMigrator(a1, rows)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewOnlineMigrator(a2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.SetParallelism(3); err != nil {
		t.Fatal(err)
	}
	for _, m := range []*OnlineMigrator{m1, m2} {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	buf1 := make([]byte, 32)
	buf2 := make([]byte, 32)
	for d := 0; d < 5; d++ {
		for b := int64(0); b < rows; b++ {
			if err := a1.Disks().Disk(d).Read(b, buf1); err != nil {
				t.Fatal(err)
			}
			if err := a2.Disks().Disk(d).Read(b, buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1, buf2) {
				t.Fatalf("disk %d block %d differs between serial and parallel conversion", d, b)
			}
		}
	}
}

// TestOnlineMigrationRightLayouts: the paper's Fig. 7 — a right-asymmetric
// RAID-5 migrates with the mirrored Code 5-6 orientation, parities in place;
// a right-symmetric one is refused.
func TestOnlineMigrationRightLayouts(t *testing.T) {
	for _, l := range []raid5.Layout{raid5.RightAsymmetric, raid5.RightSymmetric} {
		const rows = 16
		a, err := raid5.New(4, 32, l)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(41))
		want := make(map[int64][]byte)
		for L := int64(0); L < rows*3; L++ {
			b := make([]byte, 32)
			r.Read(b)
			want[L] = b
			if err := a.WriteBlock(L, b); err != nil {
				t.Fatal(err)
			}
		}
		mig, err := NewOnlineMigrator(a, rows)
		if l == raid5.RightSymmetric {
			// raid6 would number its data blocks in another order.
			if err == nil || !strings.Contains(err.Error(), "right-symmetric RAID-5 cannot be migrated") {
				t.Fatalf("%v: NewOnlineMigrator = %v, want the symmetric-layout refusal", l, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if mig.Code().Orientation() != core.Right {
			t.Fatalf("%v: orientation %v, want Right", l, mig.Code().Orientation())
		}
		if err := mig.Start(); err != nil {
			t.Fatal(err)
		}
		// A few writes mid-flight exercise the right-oriented diagonal
		// update path.
		for L := int64(0); L < 12; L += 4 {
			b := make([]byte, 32)
			r.Read(b)
			if err := mig.Write(L, b); err != nil {
				t.Fatal(err)
			}
			want[L] = b
		}
		if err := mig.Wait(); err != nil {
			t.Fatal(err)
		}
		verifyConverted(t, mig, want, 4, l.String())
	}
}

// TestCancelMidMigrationLeavesResumableState: a context-cancelled migration
// must stop promptly, keep every application block intact, and leave the
// array resumable — a fresh migrator resuming from the watermark completes
// the conversion to a fully consistent RAID-6.
func TestCancelMidMigrationLeavesResumableState(t *testing.T) {
	const m, stripes = 4, 32
	rows := int64(m * stripes)
	a, want := newLoadedRAID5(t, m, rows, 23)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(500 * time.Microsecond)

	// Cancel from the progress callback once a few stripes are through, so
	// the cancellation always lands mid-migration.
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	mig.SetProgressFunc(func(done, total int64) {
		if done >= 3 {
			once.Do(cancel)
		}
	})
	if err := mig.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	converted, total := mig.Progress()
	if converted < 3 || converted >= total {
		t.Fatalf("cancelled migration converted %d of %d stripes; want mid-migration", converted, total)
	}
	if _, err := mig.Result(); err == nil {
		t.Fatal("Result on a cancelled migration should fail")
	}

	// The data layer is untouched: every block still reads back through the
	// RAID-5 (and thus through a resumed migrator).
	buf := make([]byte, 32)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatalf("read %d after cancel: %v", L, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d corrupted by cancelled migration", L)
		}
	}
	// Every stripe below the watermark is already a consistent Code 5-6
	// stripe (the new disk's diagonal parities are in place).
	code, err := core.NewOriented(m+1, core.Left)
	if err != nil {
		t.Fatal(err)
	}
	r6, err := raid6.Wrap(code, a.Disks())
	if err != nil {
		t.Fatal(err)
	}
	for st := int64(0); st < converted; st++ {
		ok, err := r6.VerifyStripe(st)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("converted stripe %d inconsistent after cancel", st)
		}
	}

	// Resume from the watermark with a fresh migrator and finish.
	mig2, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig2.ResumeFrom(converted); err != nil {
		t.Fatal(err)
	}
	if err := mig2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig2.Wait(); err != nil {
		t.Fatal(err)
	}
	verifyConverted(t, mig2, want, stripes, "resume after cancel")
}

// TestStartContextPreCancelled: starting with an already-cancelled context
// converts nothing and reports the context error.
func TestStartContextPreCancelled(t *testing.T) {
	const rows = 16
	a, want := newLoadedRAID5(t, 4, rows, 24)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetThrottle(time.Millisecond) // ensure the watcher beats the workers
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := mig.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// Data still intact.
	buf := make([]byte, 32)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d corrupted", L)
		}
	}
}

// TestStartContextFailureStartsNothing: a StartContext that fails — here the
// journal cannot take the begin record — leaves no goroutine behind (it used
// to leave one watching ctx, and one more per retry) and a migrator that
// starts once the cause is gone. A migrator whose diagonal-parity disk cannot
// be added is not built at all, and adds nothing.
func TestStartContextFailureStartsNothing(t *testing.T) {
	dir := t.TempDir()
	const p, rows, bs = 5, 8, 512
	a := newFileRAID5(t, dir, p, rows, bs)
	defer a.Disks().Close()
	inTheWay := filepath.Join(dir, filestore.DiskFileName(p-1))
	if err := os.Mkdir(inTheWay, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnlineMigrator(a, rows); err == nil || !strings.Contains(err.Error(), "adding diagonal-parity disk") {
		t.Fatalf("NewOnlineMigrator over a blocked disk image = %v, want the attach error", err)
	}
	if got := a.Disks().Len(); got != p-1 {
		t.Fatalf("%d disks after a failed attach, want %d", got, p-1)
	}
	if err := os.Remove(inTheWay); err != nil {
		t.Fatal(err)
	}
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.AttachJournal(closed); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	for try := 0; try < 3; try++ {
		if err := mig.StartContext(ctx); err == nil {
			t.Fatal("StartContext over a closed journal succeeded")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after three failed starts, %d before", after, before)
	}
	if pr := mig.ProgressSnapshot(); pr.Started || pr.State() != "pending" {
		t.Errorf("after a failed start: %+v", pr)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := mig.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	if err := mig.StartContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	for st := int64(0); st < rows/(p-1); st++ {
		if ok, err := r6.VerifyStripe(st); err != nil || !ok {
			t.Fatalf("stripe %d: ok=%v err=%v", st, ok, err)
		}
	}
}
