package raid6

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/parallel"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// TestDegradedReadFastPath: with a single failed disk every degraded read
// must be served by the one-chain fast path (horizontal first, the paper's
// p-3 XOR bound) rather than whole-stripe reconstruction. What two failed
// disks do is TestDegradedReadServedFromPlan's.
func TestDegradedReadFastPath(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(core.MustNew(5), 16)
	a.SetTelemetry(reg, nil)
	want := fillRandom(t, a, 2, rand.New(rand.NewSource(31)))
	a.Disks().Disk(1).Fail()
	checkAll(t, a, want, "single failure")

	c := reg.Snapshot().Counters
	if c["raid6.degraded_reads"] == 0 {
		t.Fatal("no degraded reads recorded")
	}
	if c["raid6.degraded_fast_path"] != c["raid6.degraded_reads"] {
		t.Fatalf("fast path served %d of %d degraded reads; single-failure reads must all take one chain",
			c["raid6.degraded_fast_path"], c["raid6.degraded_reads"])
	}
}

// TestReadSurvivesTransientErrors: a transient error that outlives the
// disk's retry budget is served by reconstruction instead of surfacing.
func TestReadSurvivesTransientErrors(t *testing.T) {
	a := New(core.MustNew(5), 16)
	want := fillRandom(t, a, 2, rand.New(rand.NewSource(33)))
	err := a.Disks().Disk(2).SetFaults(vdisk.FaultConfig{Seed: 4, ReadTransientProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	checkAll(t, a, want, "transient faults")
}

// TestScrubServesTransientErrors: a disk whose reads fail transiently, with
// no retries to absorb it, is read around by scrub as it is by reads and
// rebuild — its unserved cells are reconstructed, not the end of the pass —
// and a latent sector found beside them is the only block scrub counts as
// latent.
func TestScrubServesTransientErrors(t *testing.T) {
	a := newWarmArray(t, 8)
	poolBalanced(t)
	want := make([][]byte, 8*a.DataPerStripe())
	for l := range want {
		want[l] = make([]byte, a.BlockSize())
		if err := a.ReadBlock(int64(l), want[l]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Disks().Disk(2).SetFaults(vdisk.FaultConfig{Seed: 4, ReadTransientProb: 0.3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.BlockSize())
	for l := range want {
		if err := a.ReadBlock(int64(l), buf); err != nil || !bytes.Equal(buf, want[l]) {
			t.Fatalf("block %d: %v", l, err)
		}
	}
	if err := rebuild(a, 8, 1); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	for _, mode := range []ScrubMode{ScrubCheck, ScrubRepair} {
		if rep, err := scrub(a, 8, mode); err != nil || !rep.Clean() || rep.Stripes != 8 {
			t.Errorf("mode %d: report %+v, err %v: want all 8 stripes clean", mode, rep, err)
		}
	}
	a.Disks().Disk(0).InjectLatentError(int64(a.geom.Rows) + 1)
	if rep, err := scrub(a, 8, ScrubRepair); err != nil || rep.LatentFound != 1 || rep.LatentRepaired != 1 || rep.CorruptFound != 0 {
		t.Errorf("one latent sector: report %+v, err %v: want it found and repaired, nothing else", rep, err)
	}
}

// TestScrubCheckModeDetectsWithoutWriting: ScrubCheck counts the damage
// but leaves it in place; ScrubRepair then fixes it; a final check pass is
// clean.
func TestScrubCheckModeDetectsWithoutWriting(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(core.MustNew(5), 16)
	a.SetTelemetry(reg, nil)
	want := fillRandom(t, a, 4, rand.New(rand.NewSource(34)))

	// One latent error in stripe 0, one silent corruption in stripe 2.
	a.Disks().Disk(1).InjectLatentError(0)
	garbage := make([]byte, 16)
	rand.New(rand.NewSource(35)).Read(garbage)
	rows := int64(a.Code().Geometry().Rows)
	if err := a.Disks().Disk(3).Write(2*rows+1, garbage); err != nil {
		t.Fatal(err)
	}

	check, err := scrub(a, 4, ScrubCheck)
	if err != nil {
		t.Fatal(err)
	}
	if check.LatentFound != 1 || check.CorruptFound != 1 {
		t.Fatalf("check pass found %d latent, %d corrupt; want 1 and 1 (%+v)",
			check.LatentFound, check.CorruptFound, check)
	}
	if check.LatentRepaired != 0 || check.CorruptRepaired != 0 {
		t.Fatalf("check pass wrote to the array: %+v", check)
	}
	if check.Clean() {
		t.Fatal("report with findings claims Clean")
	}
	// The damage is still there.
	buf := make([]byte, 16)
	if err := a.Disks().Disk(1).Read(0, buf); !errors.Is(err, vdisk.ErrLatent) {
		t.Fatalf("latent error healed by a check-mode scrub: %v", err)
	}
	if c := reg.Snapshot().Counters["raid6.scrub_repairs"]; c != 0 {
		t.Fatalf("scrub_repairs = %d after check-only pass", c)
	}

	rep, err := scrub(a, 4, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentRepaired != 1 || rep.CorruptRepaired != 1 {
		t.Fatalf("repair pass fixed %d latent, %d corrupt; want 1 and 1",
			rep.LatentRepaired, rep.CorruptRepaired)
	}
	if c := reg.Snapshot().Counters["raid6.scrub_repairs"]; c != 2 {
		t.Fatalf("scrub_repairs = %d, want 2", c)
	}

	final, err := scrub(a, 4, ScrubCheck)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Clean() {
		t.Fatalf("array dirty after repair: %+v", final)
	}
	checkAll(t, a, want, "after scrub repair")
}

// TestScrubContextModeMatchesSerial: the check-mode scrub produces the same
// report on four workers as on the serial one-worker path.
func TestScrubContextModeMatchesSerial(t *testing.T) {
	build := func() *Array {
		a := New(core.MustNew(5), 16)
		fillRandom(t, a, 6, rand.New(rand.NewSource(36)))
		a.Disks().Disk(0).InjectLatentError(3)
		a.Disks().Disk(2).InjectLatentError(9)
		return a
	}
	serial, err := build().ScrubContextMode(context.Background(), 6, ScrubCheck, parallel.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := build().ScrubContextMode(context.Background(), 6, ScrubCheck, parallel.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.LatentFound != par.LatentFound || serial.CorruptFound != par.CorruptFound ||
		len(serial.Unrecoverable) != len(par.Unrecoverable) {
		t.Fatalf("parallel report %+v diverges from serial %+v", par, serial)
	}
	if serial.LatentFound != 2 {
		t.Fatalf("LatentFound = %d, want 2", serial.LatentFound)
	}
}

// TestScrubRefusesFailedDisk: a scrub of an array with a disk down stops with
// the disk's error whichever column the check meets first — it does not report
// the dead disk's column as so many bad sectors.
func TestScrubRefusesFailedDisk(t *testing.T) {
	a := New(core.MustNew(5), 16)
	fillRandom(t, a, 2, rand.New(rand.NewSource(37)))
	a.Disks().Disk(0).InjectLatentError(1)
	a.Disks().Disk(3).Fail()
	for _, mode := range []ScrubMode{ScrubCheck, ScrubRepair} {
		if rep, err := scrub(a, 2, mode); !errors.Is(err, vdisk.ErrFailed) || rep.LatentFound != 0 {
			t.Errorf("mode %d: report %+v, err %v: want ErrFailed and nothing found", mode, rep, err)
		}
	}
}
