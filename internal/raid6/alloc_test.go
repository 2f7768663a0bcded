package raid6

import (
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/layout"
)

// The steady-state hot paths must not allocate: stripes come from the
// array's stripe pool, scratch blocks from bufpool, and the chain/covering
// caches replace the per-call layout queries. These tests are the
// regression guard for that property — a new make() or map literal on one
// of these paths shows up as a non-zero AllocsPerRun.
//
// skipIfRace: the race detector's shadow-memory bookkeeping allocates on
// its own, so the 0-allocs assertions only hold in uninstrumented builds.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
}

// newWarmArray builds a healthy Code 5-6 array with `stripes` stripes of
// random data and consistent parity, with every block written at least once
// (so vdisk's backing map is fully populated and writes stop allocating).
func newWarmArray(tb testing.TB, stripes int64) *Array {
	tb.Helper()
	a := New(core.MustNew(5), 4096)
	r := rand.New(rand.NewSource(42))
	buf := make([]byte, a.BlockSize())
	for l := int64(0); l < stripes*int64(a.DataPerStripe()); l++ {
		r.Read(buf)
		if err := a.WriteBlock(l, buf); err != nil {
			tb.Fatalf("WriteBlock(%d): %v", l, err)
		}
	}
	for st := int64(0); st < stripes; st++ {
		if err := a.EncodeStripe(st); err != nil {
			tb.Fatalf("EncodeStripe(%d): %v", st, err)
		}
	}
	return a
}

func TestEncodeStripeAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	if n := testing.AllocsPerRun(100, func() {
		if err := a.EncodeStripe(1); err != nil {
			t.Fatalf("EncodeStripe: %v", err)
		}
	}); n != 0 {
		t.Errorf("EncodeStripe allocates %.1f times per call, want 0", n)
	}
}

func TestReadBlockHealthyAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	buf := make([]byte, a.BlockSize())
	if n := testing.AllocsPerRun(100, func() {
		if err := a.ReadBlock(3, buf); err != nil {
			t.Fatalf("ReadBlock: %v", err)
		}
	}); n != 0 {
		t.Errorf("healthy ReadBlock allocates %.1f times per call, want 0", n)
	}
}

func TestDegradedReadAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	// Fail the disk holding logical block 0 and read it back: the read is
	// served by single-chain reconstruction (the paper's p-3 XOR fast
	// path), which must stay allocation-free — pooled scratch block, cached
	// chains, and the disk's cached fail-stop error.
	_, cell := a.Locate(0)
	a.Disks().Disk(cell.Col).Fail()
	buf := make([]byte, a.BlockSize())
	if n := testing.AllocsPerRun(100, func() {
		if err := a.ReadBlock(0, buf); err != nil {
			t.Fatalf("degraded ReadBlock: %v", err)
		}
	}); n != 0 {
		t.Errorf("single-erasure ReadBlock allocates %.1f times per call, want 0", n)
	}
}

// TestDegradedReadDoubleFailureAllocationFree: with two disks down a read is
// served from the cached recovery plan — pooled stripe scratch, pooled cover
// pointers, no erasure map.
func TestDegradedReadDoubleFailureAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	_, cell := a.Locate(0)
	a.Disks().Disk(cell.Col).Fail()
	a.Disks().Disk((cell.Col + 2) % a.geom.Cols).Fail()
	buf := make([]byte, a.BlockSize())
	if n := testing.AllocsPerRun(100, func() {
		if err := a.ReadBlock(0, buf); err != nil {
			t.Fatalf("degraded ReadBlock: %v", err)
		}
	}); n != 0 {
		t.Errorf("double-erasure ReadBlock allocates %.1f times per call, want 0", n)
	}
}

// TestRebuildStripeAllocationFree: rebuilding two replaced disks, or one, runs
// the cached fold schedule onto a pooled buffer, under the array's own stripe
// hold or a caller's; so does the check of a clean stripe's scrub.
func TestRebuildStripeAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	disks := []int{1, 3}
	for _, d := range disks {
		a.Disks().Disk(d).Fail()
		a.Disks().Disk(d).Replace()
	}
	if err := rebuild(a, 2, disks...); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.rebuildStripe(1, disks); err != nil {
			t.Fatalf("rebuildStripe: %v", err)
		}
	}); n != 0 {
		t.Errorf("rebuildStripe allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.RebuildColumnsHeld(1, layout.Columns{}.With(a.geom.Cols-1)); err != nil {
			t.Fatalf("RebuildColumnsHeld: %v", err)
		}
	}); n != 0 {
		t.Errorf("RebuildColumnsHeld allocates %.1f times per call, want 0", n)
	}
	check := a.dec.Syndromes()
	if n := testing.AllocsPerRun(100, func() {
		if res, err := a.scrubStripe(1, true, check); err != nil || res != (scrubResult{}) {
			t.Fatalf("scrubStripe: %+v, %v", res, err)
		}
	}); n != 0 {
		t.Errorf("scrubStripe of a clean stripe allocates %.1f times per call, want 0", n)
	}
	if ok, err := a.VerifyStripe(1); err != nil || !ok {
		t.Fatalf("stripe 1 after rebuilds: ok=%v err=%v", ok, err)
	}
}

func TestWriteBlockRMWAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	data := make([]byte, a.BlockSize())
	for i := range data {
		data[i] = byte(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.WriteBlock(5, data); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
	}); n != 0 {
		t.Errorf("read-modify-write allocates %.1f times per call, want 0", n)
	}
}

// TestLocateAllocationFree pins the logical-to-physical address math at
// zero allocations — Locate runs once per block on every I/O path.
func TestLocateAllocationFree(t *testing.T) {
	skipIfRace(t)
	a := newWarmArray(t, 2)
	if n := testing.AllocsPerRun(100, func() {
		stripe, cell := a.Locate(7)
		if stripe < 0 || cell.Row < 0 {
			t.Fatal("Locate returned a negative coordinate")
		}
	}); n != 0 {
		t.Errorf("Locate allocates %.1f times per call, want 0", n)
	}
}

// TestStripeOpsAllocationFreeAtP13: the pins above at the geometry of the repo
// benchmark's array_ops workload, p=13 with 16 KiB blocks, on stripe 5, whose
// columns are disk blocks 60-71 and cross the boundary of two MemStore slabs:
// the check of a clean stripe's scrub, a two-disk rebuild, and a degraded read
// around two failed disks.
func TestStripeOpsAllocationFreeAtP13(t *testing.T) {
	skipIfRace(t)
	const st = 5
	a, _, _ := newFilledArray(t, core.MustNew(13), 16384, st+1, false)
	check := a.dec.Syndromes()
	if n := testing.AllocsPerRun(20, func() {
		if res, err := a.scrubStripe(st, false, check); err != nil || res != (scrubResult{}) {
			t.Fatalf("scrubStripe: %+v, %v", res, err)
		}
	}); n != 0 {
		t.Errorf("scrubStripe of a clean stripe allocates %.1f times per call, want 0", n)
	}
	disks := []int{0, 2}
	for _, d := range disks {
		a.Disks().Disk(d).Fail()
		a.Disks().Disk(d).Replace()
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := a.rebuildStripe(st, disks); err != nil {
			t.Fatalf("rebuildStripe: %v", err)
		}
	}); n != 0 {
		t.Errorf("two-disk rebuildStripe allocates %.1f times per call, want 0", n)
	}
	for _, d := range disks {
		a.Disks().Disk(d).Fail()
	}
	cell := layout.Coord{Row: 7, Col: 2}
	buf := make([]byte, a.BlockSize())
	if n := testing.AllocsPerRun(20, func() {
		if err := a.degradedRead(st, cell, buf); err != nil {
			t.Fatalf("degradedRead: %v", err)
		}
	}); n != 0 {
		t.Errorf("degradedRead around two failed disks allocates %.1f times per call, want 0", n)
	}
}
