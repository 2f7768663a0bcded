package raid6

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// Damage inside a run. At p=5 with 4 KiB blocks a pass folds runs of 12
// stripes; over 30 stripes they are [0, 12), [12, 24) and [24, 30). A run
// whose fold meets an error redundancy serves is taken again stripe by stripe,
// each stripe as the per-stripe path takes it, under the holds the run took.

const runStripes = 30

// readAll returns the logical blocks of the array's first runStripes stripes.
func readAll(t *testing.T, a *Array) [][]byte {
	t.Helper()
	out := make([][]byte, runStripes*a.DataPerStripe())
	for l := range out {
		out[l] = make([]byte, a.BlockSize())
		if err := a.ReadBlock(int64(l), out[l]); err != nil {
			t.Fatalf("block %d: %v", l, err)
		}
	}
	return out
}

// sameBlocks fails t unless the array reads back want.
func sameBlocks(t *testing.T, a *Array, want [][]byte, ctx string) {
	t.Helper()
	buf := make([]byte, a.BlockSize())
	for l := range want {
		if err := a.ReadBlock(int64(l), buf); err != nil || !bytes.Equal(buf, want[l]) {
			t.Fatalf("%s: block %d: %v, equal %v", ctx, l, err, bytes.Equal(buf, want[l]))
		}
	}
}

// TestScrubHealsALatentSectorMidRun: a latent sector in stripe 5, the middle
// of the first run, is found by ScrubCheck, which writes nothing, and healed
// by ScrubRepair with one write, the only block counted latent either time.
func TestScrubHealsALatentSectorMidRun(t *testing.T) {
	a := newWarmArray(t, runStripes)
	poolBalanced(t)
	want := readAll(t, a)
	a.Disks().Disk(3).InjectLatentError(5*int64(a.geom.Rows) + 2)
	a.Disks().ResetStats()
	rep, err := scrub(a, runStripes, ScrubCheck)
	if err != nil || rep.LatentFound != 1 || rep.LatentRepaired != 0 || rep.CorruptFound != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("check: %+v, %v; want one latent sector found", rep, err)
	}
	if st := a.Disks().TotalStats(); st.Writes != 0 {
		t.Fatalf("ScrubCheck wrote %d blocks", st.Writes)
	}
	rep, err = scrub(a, runStripes, ScrubRepair)
	if err != nil || rep.LatentFound != 1 || rep.LatentRepaired != 1 || rep.CorruptFound != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("repair: %+v, %v; want one latent sector found and repaired", rep, err)
	}
	if st := a.Disks().TotalStats(); st.Writes != 1 {
		t.Fatalf("ScrubRepair wrote %d blocks, want the latent one", st.Writes)
	}
	if rep, err := scrub(a, runStripes, ScrubCheck); err != nil || !rep.Clean() {
		t.Fatalf("after the repair: %+v, %v", rep, err)
	}
	sameBlocks(t, a, want, "after the repair")
}

// TestRebuildAroundALatentSectorMidRun: a rebuild that meets a latent sector
// on a survivor in stripe 5 goes on stripe by stripe. Rebuilding one disk, the
// stripe is decoded whole, the latent block healed on the way, and the pass
// completes: every stripe verifies. Rebuilding two, one more lost block is
// past what two parity columns recover: the pass stops at stripe 5 with the
// per-stripe path's error, every stripe before it rebuilt.
func TestRebuildAroundALatentSectorMidRun(t *testing.T) {
	for _, disks := range [][]int{{1}, {0, 2}} {
		a := newWarmArray(t, runStripes)
		poolBalanced(t)
		want := readAll(t, a)
		for _, d := range disks {
			a.Disks().Disk(d).Fail()
			a.Disks().Disk(d).Replace()
		}
		a.Disks().Disk(3).InjectLatentError(5*int64(a.geom.Rows) + 2)
		err := rebuild(a, runStripes, disks...)
		if len(disks) == 1 {
			if err != nil {
				t.Fatalf("rebuild of disk %v: %v", disks, err)
			}
			for st := int64(0); st < runStripes; st++ {
				if ok, err := a.VerifyStripe(st); err != nil || !ok {
					t.Fatalf("rebuild of disk %v: stripe %d: ok=%v err=%v", disks, st, ok, err)
				}
			}
			sameBlocks(t, a, want, "after the rebuild")
			continue
		}
		if !errors.Is(err, ErrTooManyFailures) || !strings.Contains(err.Error(), "stripe 5:") {
			t.Fatalf("rebuild of disks %v: %v, want stripe 5 past the tolerance", disks, err)
		}
		for st := int64(0); st < 5; st++ {
			if ok, err := a.VerifyStripe(st); err != nil || !ok {
				t.Fatalf("rebuild of disks %v: stripe %d: ok=%v err=%v", disks, st, ok, err)
			}
		}
	}
}

// TestRunRetriesTransientFaults: a transient fault met by a run's disk call is
// retried as the whole call, so scrub and a two-disk rebuild still read each
// disk's part of a run with one store call, and both complete.
func TestRunRetriesTransientFaults(t *testing.T) {
	a, calls, _ := newCountedArray(t, runStripes, 4096, false)
	const runs = 3
	reg := telemetry.NewRegistry()
	d := a.Disks().Disk(3)
	d.SetTelemetry(reg, nil)
	if err := d.SetFaults(vdisk.FaultConfig{Seed: 5, ReadTransientProb: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetRetry(50, 0); err != nil {
		t.Fatal(err)
	}
	calls.take()
	if rep, err := scrub(a, runStripes, ScrubCheck); err != nil || !rep.Clean() {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	if reads, _ := calls.take(); reads != runs*int64(a.geom.Cols) {
		t.Errorf("scrub made %d store reads, want %d", reads, runs*a.geom.Cols)
	}
	for _, d := range []int{0, 2} {
		a.Disks().Disk(d).Fail()
		a.Disks().Disk(d).Replace()
	}
	if err := rebuild(a, runStripes, 0, 2); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if reads, writes := calls.take(); reads != runs*int64(a.geom.Cols-2) || writes != 2*runStripes {
		t.Errorf("rebuild made %d store reads and %d writes, want %d and %d", reads, writes, runs*(a.geom.Cols-2), 2*runStripes)
	}
	if n := reg.Counter("vdisk.retries").Value(); n == 0 {
		t.Error("no retries: the scenario met no transient fault")
	}
	for st := int64(0); st < runStripes; st++ {
		if ok, err := a.VerifyStripe(st); err != nil || !ok {
			t.Fatalf("stripe %d: ok=%v err=%v", st, ok, err)
		}
	}
}

// TestRunMeetsAFailStop: a survivor that fail-stops inside the second run
// (its 69th block, stripe 17's first) ends scrub and rebuild with the error
// the per-stripe path gives the run's first stripe — a scrub with a disk
// down, a rebuild past the tolerance — and the first run's stripes are done.
func TestRunMeetsAFailStop(t *testing.T) {
	const failAt = 12*4 + 5*4 + 1
	a := newWarmArray(t, runStripes)
	poolBalanced(t)
	if err := a.Disks().Disk(3).SetFaults(vdisk.FaultConfig{Seed: 1, FailAtIO: failAt}); err != nil {
		t.Fatal(err)
	}
	rep, err := scrub(a, runStripes, ScrubCheck)
	if !errors.Is(err, vdisk.ErrFailed) || !strings.Contains(err.Error(), "scrubbing stripe 12 with a disk down") {
		t.Fatalf("scrub: %+v, %v; want stripe 12 refused with a disk down", rep, err)
	}

	a = newWarmArray(t, runStripes)
	want := readAll(t, a)
	for _, d := range []int{0, 2} {
		a.Disks().Disk(d).Fail()
		a.Disks().Disk(d).Replace()
	}
	if err := a.Disks().Disk(3).SetFaults(vdisk.FaultConfig{Seed: 1, FailAtIO: failAt}); err != nil {
		t.Fatal(err)
	}
	err = rebuild(a, runStripes, 0, 2)
	if !errors.Is(err, ErrTooManyFailures) || !strings.Contains(err.Error(), "stripe 12:") {
		t.Fatalf("rebuild: %v; want stripe 12 past the tolerance", err)
	}
	sameBlocks(t, a, want[:12*a.DataPerStripe()], "the first run, read around the failed disk")
}
