package raid6

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"code56/internal/codes/evenodd"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// newFilledArray is an array of the code holding `stripes` stripes of random
// data written with WriteStripe, bound to its own registry, plus the data by
// logical block.
func newFilledArray(t testing.TB, code layout.Code, blockSize int, stripes int64, rotate bool) (*Array, *telemetry.Registry, [][]byte) {
	t.Helper()
	poolBalanced(t)
	a := New(code, blockSize)
	a.SetRotation(rotate)
	reg := telemetry.NewRegistry()
	a.SetTelemetry(reg, nil)
	r := rand.New(rand.NewSource(int64(code.Geometry().P)*100 + stripes))
	var want [][]byte
	for st := int64(0); st < stripes; st++ {
		blocks := randBlocks(r, a.DataPerStripe(), blockSize)
		if err := a.WriteStripe(st, blocks); err != nil {
			t.Fatal(err)
		}
		want = append(want, blocks...)
	}
	return a, reg, want
}

// lostCols is the plan key degradedRead uses for a cell of the stripe.
func lostCols(a *Array, stripe int64, cell layout.Coord) layout.Columns {
	return a.lostColumns(stripe, a.failedColumns(), cell.Col)
}

// TestDegradedReadEveryPairEveryBlock: with any two disks down, every
// logical block of an array of any code reads back its bytes, and for Code 5-6
// every one of those degraded reads is served from a recovery plan.
func TestDegradedReadEveryPairEveryBlock(t *testing.T) {
	codes := append([]layout.Code{core.MustNew(3), core.MustNew(7), core.MustNew(13)}, codesUnderTest()...)
	for _, code := range codes {
		n := code.Geometry().Cols
		for _, rotate := range []bool{false, true} {
			a, reg, want := newFilledArray(t, code, 16, 3, rotate)
			buf := make([]byte, 16)
			for d1 := 0; d1 < n; d1++ {
				for d2 := d1 + 1; d2 < n; d2++ {
					a.Disks().Disk(d1).Fail()
					a.Disks().Disk(d2).Fail()
					for l, w := range want {
						if err := a.ReadBlock(int64(l), buf); err != nil {
							t.Fatalf("%s p=%d rotate=%v disks (%d,%d): block %d: %v", code.Name(), code.Geometry().P, rotate, d1, d2, l, err)
						}
						if !bytes.Equal(buf, w) {
							t.Fatalf("%s p=%d rotate=%v disks (%d,%d): block %d wrong", code.Name(), code.Geometry().P, rotate, d1, d2, l)
						}
					}
					restore(t, a, 3, d1, d2)
				}
			}
			c := reg.Snapshot().Counters
			if _, ok := code.(*core.Code56); ok && (c["raid6.degraded_reads"] == 0 || c["raid6.degraded_fast_path"] != c["raid6.degraded_reads"]) {
				t.Fatalf("p=%d rotate=%v: %d of %d degraded reads served from a plan, want all",
					code.Geometry().P, rotate, c["raid6.degraded_fast_path"], c["raid6.degraded_reads"])
			}
		}
	}
}

// restore brings failed disks back by replacing and rebuilding them.
func restore(t testing.TB, a *Array, stripes int64, disks ...int) {
	t.Helper()
	for _, d := range disks {
		a.Disks().Disk(d).Replace()
	}
	if err := rebuild(a, stripes, disks...); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedReadServedFromPlan: every double-failure read of a Code 5-6
// array is served from a plan — the truth that replaced "some fall back" —
// while EVENODD, whose double data-column failure does not peel, still
// answers through the full decoder.
func TestDegradedReadServedFromPlan(t *testing.T) {
	for _, tc := range []struct {
		code    layout.Code
		allFast bool
	}{{core.MustNew(5), true}, {evenodd.MustNew(5), false}} {
		a, reg, want := newFilledArray(t, tc.code, 16, 2, false)
		a.Disks().Disk(0).Fail()
		a.Disks().Disk(1).Fail()
		buf := make([]byte, 16)
		for l, w := range want {
			if err := a.ReadBlock(int64(l), buf); err != nil || !bytes.Equal(buf, w) {
				t.Fatalf("%s: block %d: err=%v", tc.code.Name(), l, err)
			}
		}
		c := reg.Snapshot().Counters
		if fast, all := c["raid6.degraded_fast_path"], c["raid6.degraded_reads"]; all == 0 || (fast == all) != tc.allFast {
			t.Fatalf("%s: %d of %d degraded reads served from a plan", tc.code.Name(), fast, all)
		}
	}
}

// TestDegradedReadCostMatchesPlan: one degraded read makes exactly the disk
// reads its plan lists, with one store call a run of them, and sources-1 XORs
// — against the whole stripe (20 blocks at p=5, 156 at p=13) the old fallback
// loaded.
func TestDegradedReadCostMatchesPlan(t *testing.T) {
	type cost struct {
		cell    layout.Coord
		sources int64
	}
	for _, tc := range []struct {
		p     int
		cells []cost
	}{
		// Disks 0 and 2 down: each data cell of those columns, by its place
		// on the recovery chains.
		{5, []cost{{layout.Coord{Row: 0, Col: 0}, 9}, {layout.Coord{Row: 1, Col: 0}, 3}, {layout.Coord{Row: 2, Col: 0}, 5},
			{layout.Coord{Row: 0, Col: 2}, 7}, {layout.Coord{Row: 2, Col: 2}, 3}, {layout.Coord{Row: 3, Col: 2}, 9}}},
		{13, []cost{{layout.Coord{Row: 1, Col: 0}, 11}, {layout.Coord{Row: 10, Col: 0}, 21}, {layout.Coord{Row: 5, Col: 0}, 47},
			{layout.Coord{Row: 0, Col: 0}, 73}, {layout.Coord{Row: 10, Col: 2}, 11}, {layout.Coord{Row: 4, Col: 2}, 59}}},
	} {
		code := core.MustNew(tc.p)
		a, reg, want := newFilledArray(t, code, 16, 2, false)
		a.Disks().Disk(0).Fail()
		a.Disks().Disk(2).Fail()
		buf := make([]byte, 16)
		for _, c := range tc.cells {
			logical := int64(-1)
			for l := range want {
				if st, cell := a.Locate(int64(l)); st == 1 && cell == c.cell {
					logical = int64(l)
				}
			}
			if logical < 0 {
				t.Fatalf("p=%d: %v is not a data cell", tc.p, c.cell)
			}
			if n := int64(len(a.dec.ColumnPlan(lostCols(a, 1, c.cell)).Sources(c.cell))); n != c.sources {
				t.Fatalf("p=%d cell %v: the plan lists %d sources, want %d", tc.p, c.cell, n, c.sources)
			}
			a.Disks().ResetStats()
			xors := reg.Counter("raid6.xors").Value()
			if err := a.ReadBlock(logical, buf); err != nil || !bytes.Equal(buf, want[logical]) {
				t.Fatalf("p=%d cell %v: err=%v", tc.p, c.cell, err)
			}
			if got := a.Disks().TotalStats().Reads; got != c.sources {
				t.Errorf("p=%d cell %v: %d disk reads, want the plan's %d sources", tc.p, c.cell, got, c.sources)
			}
			if got := reg.Counter("raid6.xors").Value() - xors; got != c.sources-1 {
				t.Errorf("p=%d cell %v: %d XORs, want %d", tc.p, c.cell, got, c.sources-1)
			}
		}

		// One disk down: the horizontal chain, the paper's p-2 reads and p-3
		// XORs.
		restore(t, a, 2, 2)
		a.Disks().ResetStats()
		xors := reg.Counter("raid6.xors").Value()
		logical := int64(0)
		for ; ; logical++ {
			if _, cell := a.Locate(logical); cell.Col == 0 {
				break
			}
		}
		if err := a.ReadBlock(logical, buf); err != nil || !bytes.Equal(buf, want[logical]) {
			t.Fatalf("p=%d single failure: err=%v", tc.p, err)
		}
		if reads, x := a.Disks().TotalStats().Reads, reg.Counter("raid6.xors").Value()-xors; reads != int64(tc.p-2) || x != int64(tc.p-3) {
			t.Errorf("p=%d single failure: %d reads and %d XORs, want %d and %d", tc.p, reads, x, tc.p-2, tc.p-3)
		}
	}

	// And one store call a source run, however many blocks the run holds: on a
	// file store a degraded read is that many preads, not one a block.
	a, calls, _ := newCountedArray(t, 2, false)
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(2).Fail()
	buf := make([]byte, a.BlockSize())
	longRuns := 0
	for l := int64(a.DataPerStripe()); l < 2*int64(a.DataPerStripe()); l++ {
		_, cell := a.Locate(l)
		if cell.Col != 0 && cell.Col != 2 {
			continue
		}
		// One call a run where the runs land straight on buf, one a read where
		// the column goes through scratch: either way one a run of adjacent
		// sources.
		runs, blocks := 0, 0
		for _, cf := range a.dec.ColumnPlan(lostCols(a, 1, cell)).SourceRuns(cell) {
			for _, rd := range cf.Reads {
				runs, blocks = runs+1, blocks+rd.N
			}
			if cf.Reads == nil {
				runs, blocks = runs+len(cf.Runs), blocks+len(cf.Runs)
			}
		}
		longRuns += blocks - runs
		calls.take()
		a.Disks().ResetStats()
		if err := a.ReadBlock(l, buf); err != nil {
			t.Fatal(err)
		}
		if reads, _ := calls.take(); reads != int64(runs) || a.Disks().TotalStats().Reads != int64(blocks) {
			t.Errorf("cell %v: %d store calls for %d blocks, want %d calls, one a source run, for %d", cell, reads, a.Disks().TotalStats().Reads, runs, blocks)
		}
	}
	if longRuns == 0 {
		t.Error("no source run of the cells read holds two blocks: the call count proves nothing")
	}
}

// TestDegradedReadLatentSourceFallsBack: a bad sector on one of the plan's
// sources sends the read to the full decoder, which takes the exact erasure
// set and still returns the right bytes.
func TestDegradedReadLatentSourceFallsBack(t *testing.T) {
	a, reg, want := newFilledArray(t, core.MustNew(7), 16, 2, false)
	a.Disks().Disk(1).Fail()
	var logical int64
	var cell layout.Coord
	for ; ; logical++ {
		var st int64
		if st, cell = a.Locate(logical); st == 1 && cell.Col == 1 {
			break
		}
	}
	src := a.dec.ColumnPlan(lostCols(a, 1, cell)).Sources(cell)[2]
	a.Disks().Disk(src.Col).InjectLatentError(a.blockAddr(1, src))
	buf := make([]byte, 16)
	if err := a.ReadBlock(logical, buf); err != nil || !bytes.Equal(buf, want[logical]) {
		t.Fatalf("read around a failed disk and a bad sector: err=%v", err)
	}
	c := reg.Snapshot().Counters
	if c["raid6.degraded_reads"] != 1 || c["raid6.degraded_fast_path"] != 0 {
		t.Fatalf("%d degraded reads, %d from a plan: want the one read to fall back", c["raid6.degraded_reads"], c["raid6.degraded_fast_path"])
	}
}

// TestThirdFailureMidRead: a third disk dying while two are down turns reads
// into ErrTooManyFailures, cause attached — never into wrong bytes.
func TestThirdFailureMidRead(t *testing.T) {
	a, _, want := newFilledArray(t, core.MustNew(7), 16, 3, true)
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(2).Fail()
	if err := a.Disks().Disk(5).SetFaults(vdisk.FaultConfig{Seed: 1, FailAtIO: 40}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	failed := 0
	for l, w := range want {
		err := a.ReadBlock(int64(l), buf)
		switch {
		case err == nil:
			if !bytes.Equal(buf, w) {
				t.Fatalf("block %d: wrong bytes (third disk failed: %v)", l, a.Disks().Disk(5).Failed())
			}
		case errors.Is(err, ErrTooManyFailures) && errors.Is(err, layout.ErrUnrecoverable):
			failed++
		default:
			t.Fatalf("block %d: %v", l, err)
		}
	}
	if !a.Disks().Disk(5).Failed() || failed == 0 {
		t.Fatalf("third disk failed: %v, reads refused: %d", a.Disks().Disk(5).Failed(), failed)
	}
}

// TestDecodeErrorsKeepTheirCause: every path that gives up on a stripe says
// both what it means for the array and why the decoder refused.
func TestDecodeErrorsKeepTheirCause(t *testing.T) {
	a, _, _ := newFilledArray(t, core.MustNew(5), 16, 1, false)
	for _, d := range []int{0, 1, 2} {
		a.Disks().Disk(d).Fail()
	}
	both := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrTooManyFailures) || !errors.Is(err, layout.ErrUnrecoverable) {
			t.Errorf("%s: %v: want ErrTooManyFailures wrapping layout.ErrUnrecoverable", what, err)
		}
	}
	buf := make([]byte, 16)
	both("ReadBlock", a.ReadBlock(0, buf))
	both("WriteBlock", a.WriteBlock(0, buf))
	_, err := a.ReadStripe(0)
	both("ReadStripe", err)
	a.Disks().Disk(0).Replace()
	a.Disks().Disk(1).Replace()
	both("Rebuild", rebuild(a, 1, 0, 1))
}

// TestRebuildContextRejectsBadDisks: a disk list that cannot be rebuilt is an
// error before any worker starts, not a panic inside one.
func TestRebuildContextRejectsBadDisks(t *testing.T) {
	a, _, _ := newFilledArray(t, core.MustNew(5), 16, 4, false)
	for _, disks := range [][]int{{7}, {-1}, {1, 5}, {3, 3}} {
		for _, workers := range []int{1, 4} {
			err := a.RebuildContext(context.Background(), 4, disks, parallel.WithWorkers(workers))
			if err == nil || errors.Is(err, ErrTooManyFailures) {
				t.Errorf("RebuildContext(%v, workers=%d): %v, want a descriptive error", disks, workers, err)
			}
		}
	}
	if err := a.RebuildContext(context.Background(), 4, nil); err != nil {
		t.Errorf("rebuilding no disks: %v", err)
	}
}

// TestRebuildAroundFurtherDamage: a rebuild whose surviving columns are not
// all readable — a second disk still down, a bad sector — leaves the cached
// schedule for the full decoder and still restores the disk, healing the bad
// sector on the way: the scrub after it finds nothing.
func TestRebuildAroundFurtherDamage(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		a, _, want := newFilledArray(t, core.MustNew(7), 16, 3, rotate)
		a.Disks().Disk(1).Fail()
		a.Disks().Disk(4).Fail()
		a.Disks().Disk(1).Replace()
		if err := rebuild(a, 3, 1); err != nil {
			t.Fatalf("rotate=%v: rebuilding disk 1 with disk 4 down: %v", rotate, err)
		}
		a.Disks().Disk(4).Replace()
		a.Disks().Disk(2).InjectLatentError(9)
		if err := rebuild(a, 3, 4); err != nil {
			t.Fatalf("rotate=%v: rebuilding disk 4 around a bad sector: %v", rotate, err)
		}
		if err := a.Disks().Disk(2).Read(9, make([]byte, 16)); err != nil {
			t.Fatalf("rotate=%v: the bad sector the rebuild read around still fails: %v", rotate, err)
		}
		if rep, err := scrub(a, 3, ScrubRepair); err != nil || !rep.Clean() {
			t.Fatalf("rotate=%v: scrub %+v, %v", rotate, rep, err)
		}
		buf := make([]byte, 16)
		for l, w := range want {
			if err := a.ReadBlock(int64(l), buf); err != nil || !bytes.Equal(buf, w) {
				t.Fatalf("rotate=%v: block %d after the rebuilds: err=%v", rotate, l, err)
			}
		}
		for st := int64(0); st < 3; st++ {
			if ok, err := a.VerifyStripe(st); err != nil || !ok {
				t.Fatalf("rotate=%v: stripe %d inconsistent: %v", rotate, st, err)
			}
		}
	}
}

// TestDegradedReadersDuringRebuild (run with -race): four readers work
// around a dead disk while another goroutine fails, replaces and rebuilds a
// second one. A replaced disk's blocks are stale until its rebuild writes
// them, and a read of one is served from the redundancy, so every read
// returns the block's bytes and none an error, a single further failure being
// within tolerance throughout.
func TestDegradedReadersDuringRebuild(t *testing.T) {
	const stripes = 8
	a, reg, want := newFilledArray(t, core.MustNew(7), 64, stripes, true)
	a.Disks().Disk(0).Fail()

	var reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := rng.Intn(len(want))
				err := a.ReadBlock(int64(l), buf)
				if err != nil {
					errs <- fmt.Errorf("block %d: %w", l, err)
					return
				}
				if !bytes.Equal(buf, want[l]) {
					errs <- fmt.Errorf("block %d: wrong bytes", l)
					return
				}
				reads.Add(1)
			}
		}(int64(r))
	}
	for cycle := 0; (cycle < 20 || reads.Load() < 2000) && len(errs) == 0; cycle++ {
		a.Disks().Disk(3).Fail()
		a.Disks().Disk(3).Replace()
		if err := a.RebuildContext(context.Background(), stripes, []int{3}, parallel.WithWorkers(2)); err != nil {
			errs <- err
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if reg.Counter("raid6.degraded_reads").Value() == 0 {
		t.Fatal("no read was degraded")
	}
	buf := make([]byte, 64)
	for l, w := range want {
		if err := a.ReadBlock(int64(l), buf); err != nil || !bytes.Equal(buf, w) {
			t.Fatalf("block %d after the last rebuild: err=%v", l, err)
		}
	}
}

// TestReplacedDiskReadsItsData: before their rebuild, replaced disks' cells
// read as what was written to them, decoded from the rest of the stripe — not
// as the new drives' zeros — with one disk replaced and with two, rotated or
// not; a check scrub counts none of them as a bad sector; the rebuild then
// restores every stripe.
func TestReplacedDiskReadsItsData(t *testing.T) {
	for _, disks := range [][]int{{2}, {0, 2}} {
		for _, rotate := range []bool{false, true} {
			a, _, want := newFilledArray(t, core.MustNew(5), 32, 4, rotate)
			for _, d := range disks {
				a.Disks().Disk(d).Fail()
				a.Disks().Disk(d).Replace()
			}
			buf := make([]byte, 32)
			for l, w := range want {
				if err := a.ReadBlock(int64(l), buf); err != nil || !bytes.Equal(buf, w) {
					t.Fatalf("disks %v rotate=%v: block %d before the rebuild: err=%v", disks, rotate, l, err)
				}
			}
			if rep, err := scrub(a, 4, ScrubCheck); err != nil || rep.LatentFound != 0 || len(rep.Unrecoverable) != 0 {
				t.Fatalf("disks %v rotate=%v: check scrub before the rebuild: %+v, %v; a block not yet rebuilt is no bad sector", disks, rotate, rep, err)
			}
			if err := rebuild(a, 4, disks...); err != nil {
				t.Fatal(err)
			}
			for st := int64(0); st < 4; st++ {
				if ok, err := a.VerifyStripe(st); err != nil || !ok {
					t.Fatalf("disks %v rotate=%v: stripe %d after the rebuild: ok=%v err=%v", disks, rotate, st, ok, err)
				}
			}
		}
	}
}
