package raid6

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// callCounter is a memory backend whose stores count the calls that reach
// them: block I/Os are what Stats counts, store calls are what a file
// backend turns into syscalls.
type callCounter struct{ reads, writes atomic.Int64 }

type countedStore struct {
	*vdisk.MemStore
	c *callCounter
}

func (s countedStore) ReadAt(p []byte, off int64) (int, error) {
	s.c.reads.Add(1)
	return s.MemStore.ReadAt(p, off)
}

func (s countedStore) WriteAt(p []byte, off int64) (int, error) {
	s.c.writes.Add(1)
	return s.MemStore.WriteAt(p, off)
}

// ReadFoldAt is a read call too: the fold-in-place form of ReadAt, which the
// embedded MemStore would otherwise serve uncounted.
func (s countedStore) ReadFoldAt(acc []byte, off int64, bs int, lanes []layout.FoldRun) error {
	s.c.reads.Add(1)
	return s.MemStore.ReadFoldAt(acc, off, bs, lanes)
}

func (c *callCounter) Open(id, blockSize int) (vdisk.BlockStore, error) {
	return countedStore{vdisk.NewMemStore(blockSize), c}, nil
}

// take returns the calls counted since the last take.
func (c *callCounter) take() (reads, writes int64) {
	return c.reads.Swap(0), c.writes.Swap(0)
}

// newCountedArray is a Code 5-6 array (p=5: 4 rows, 5 columns) over counting
// stores, holding `stripes` stripes written with WriteStripe.
func newCountedArray(t *testing.T, stripes int64, rotate bool) (*Array, *callCounter, [][][]byte) {
	t.Helper()
	poolBalanced(t)
	code := core.MustNew(5)
	c := &callCounter{}
	disks, err := vdisk.NewArrayBackend(code.Geometry().Cols, 64, c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Wrap(code, disks)
	if err != nil {
		t.Fatal(err)
	}
	a.SetRotation(rotate)
	r := rand.New(rand.NewSource(9))
	data := make([][][]byte, stripes)
	for st := range data {
		data[st] = randBlocks(r, a.DataPerStripe(), 64)
		if err := a.WriteStripe(int64(st), data[st]); err != nil {
			t.Fatal(err)
		}
	}
	return a, c, data
}

// TestStripeOpsMoveOneColumnPerStoreCall: full-stripe write, stripe load,
// scrub and rebuild move a column's rows with one store call, while Stats
// goes on counting every block; a rebuild reads only the columns its plan
// names, each block once.
func TestStripeOpsMoveOneColumnPerStoreCall(t *testing.T) {
	const stripes = 3
	for _, rotate := range []bool{false, true} {
		a, c, data := newCountedArray(t, stripes, rotate)
		rows, cols := int64(a.geom.Rows), int64(a.geom.Cols)
		expect := func(what string, wantReads, wantWrites, blockReads, blockWrites int64) {
			t.Helper()
			reads, writes := c.take()
			st := a.Disks().TotalStats()
			a.Disks().ResetStats()
			if reads != wantReads || writes != wantWrites {
				t.Errorf("rotate=%v %s: %d read / %d write store calls, want %d / %d", rotate, what, reads, writes, wantReads, wantWrites)
			}
			if st.Reads != blockReads || st.Writes != blockWrites {
				t.Errorf("rotate=%v %s: Stats %d reads / %d writes, want %d / %d", rotate, what, st.Reads, st.Writes, blockReads, blockWrites)
			}
		}
		expect("WriteStripe x3", 0, stripes*cols, 0, stripes*rows*cols)

		if ok, err := a.VerifyStripe(1); err != nil || !ok {
			t.Fatalf("VerifyStripe: ok=%v err=%v", ok, err)
		}
		expect("VerifyStripe", cols, 0, rows*cols, 0)

		rep, err := a.ScrubContextMode(context.Background(), stripes, ScrubCheck, parallel.WithWorkers(1))
		if err != nil || !rep.Clean() {
			t.Fatalf("scrub: %+v, %v", rep, err)
		}
		expect("scrub", stripes*cols, 0, stripes*rows*cols, 0)

		for _, d := range []int{0, 2} {
			a.Disks().Disk(d).Fail()
			a.Disks().Disk(d).Replace()
		}
		if err := a.RebuildContext(context.Background(), stripes, []int{0, 2}, parallel.WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		expect("rebuild of two disks", stripes*(cols-2), stripes*2, stripes*rows*(cols-2), stripes*rows*2)

		// One disk: the plan's columns and no others. A data column is rebuilt
		// from its rows' horizontal chains, which never touch the diagonal-parity
		// column; the diagonal-parity column from the data cells, the conversion's
		// reads, and no horizontal-parity cell.
		for _, d := range []int{1, 4} {
			a.Disks().Disk(d).Fail()
			a.Disks().Disk(d).Replace()
			var calls, blocks int64
			for st := int64(0); st < stripes; st++ {
				plan := a.dec.ColumnPlan(layout.Columns{}.With(a.colOnDisk(st, d)))
				for _, cf := range plan.Folds() {
					if cf.Reads != nil {
						t.Fatalf("rotate=%v disk %d stripe %d: column %d goes through scratch, its cells have one taker each", rotate, d, st, cf.Col)
					}
					calls += int64(len(cf.Runs))
				}
				blocks += int64(plan.Stats().BlocksRead)
			}
			if err := a.RebuildContext(context.Background(), stripes, []int{d}, parallel.WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
			if !rotate {
				// Blocks a stripe from each disk, and runs a stripe: a data
				// disk's row chains skip the diagonal-parity disk, one run a
				// column; the diagonal-parity disk's chains skip each data disk's
				// horizontal-parity cell, 2(p-1)-2 runs.
				perDisk, runs := []int64{rows, 0, rows, rows, 0}, cols-2
				if d == 4 {
					perDisk, runs = []int64{rows - 1, rows - 1, rows - 1, rows - 1, 0}, 2*(cols-1)-2
				}
				for i, want := range perDisk {
					if got := a.Disks().Disk(i).Stats().Reads; got != stripes*want {
						t.Errorf("rebuild of disk %d: %d blocks read from disk %d, want %d", d, got, i, stripes*want)
					}
				}
				if calls != stripes*runs {
					t.Errorf("rebuild of disk %d: the plans list %d runs, want %d", d, calls, stripes*runs)
				}
			}
			if want := stripes * rows * (cols - 2); blocks != want {
				t.Errorf("rotate=%v: the plans for disk %d read %d blocks, want the paper's (p-1)(p-2) a stripe, %d", rotate, d, blocks, want)
			}
			expect(fmt.Sprintf("rebuild of disk %d", d), calls, stripes, blocks, stripes*rows)
		}

		for st := int64(0); st < stripes; st++ {
			got, err := a.ReadStripe(st)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !bytes.Equal(got[i], data[st][i]) {
					t.Fatalf("rotate=%v: stripe %d block %d wrong after rebuild", rotate, st, i)
				}
			}
			if ok, err := a.VerifyStripe(st); err != nil || !ok {
				t.Fatalf("rotate=%v: stripe %d after the rebuilds: ok=%v err=%v", rotate, st, ok, err)
			}
		}
	}
}

// TestColumnReadFallsBackToCells: a column that fails on one bad sector is
// read again cell by cell and loses only that cell; a fail-stopped disk loses
// its whole column to a single refused call; and a disk that dies in the
// middle of its column's run is treated like the failed disk it has become.
func TestColumnReadFallsBackToCells(t *testing.T) {
	a, _, data := newCountedArray(t, 2, false)
	reg := telemetry.NewRegistry()
	a.SetTelemetry(reg, nil)
	rows := int64(a.geom.Rows)
	check := func(ctx string) {
		t.Helper()
		got, err := a.ReadStripe(1)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		for i := range got {
			if !bytes.Equal(got[i], data[1][i]) {
				t.Fatalf("%s: block %d wrong", ctx, i)
			}
		}
	}

	// Three bad sectors in two columns of stripe 1. The block counts show
	// that the other cells of those columns were read, one by one.
	a.Disks().Disk(1).InjectLatentError(rows + 2)
	a.Disks().Disk(3).InjectLatentError(rows + 0)
	a.Disks().Disk(3).InjectLatentError(rows + 3)
	a.Disks().ResetStats()
	check("latent cells")
	if got := a.Disks().Disk(1).Stats().Reads; got != rows-1 {
		t.Errorf("disk 1: %d blocks read, want %d (every cell but the bad one, singly; the failed run counts nothing)", got, rows-1)
	}
	if got := a.Disks().Disk(3).Stats().Reads; got != rows-2 {
		t.Errorf("disk 3: %d blocks read, want %d", got, rows-2)
	}
	if got := a.Disks().Disk(0).Stats().Reads; got != rows {
		t.Errorf("disk 0: %d blocks read, want its whole column (%d)", got, rows)
	}
	rep, err := scrub(a, 2, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentFound != 3 || rep.LatentRepaired != 3 {
		t.Errorf("scrub found %d and repaired %d latent blocks, want 3 and 3", rep.LatentFound, rep.LatentRepaired)
	}

	// A failed disk: one refused call erases the column.
	a.Disks().Disk(1).Fail()
	errsBefore := reg.Counter("vdisk.read_errors").Value()
	check("failed disk")
	if got := reg.Counter("vdisk.read_errors").Value() - errsBefore; got != 1 {
		t.Errorf("loading a stripe around a failed disk made %d refused reads, want 1", got)
	}

	// A second disk dies three blocks into its column's run.
	if err := a.Disks().Disk(4).SetFaults(vdisk.FaultConfig{Seed: 1, FailAtIO: 3}); err != nil {
		t.Fatal(err)
	}
	check("disk failing mid-column")
	if !a.Disks().Disk(4).Failed() {
		t.Error("disk 4 should have fail-stopped at its third block")
	}
}

// TestFoldInPlaceMatchesPortable: every schedule the executor runs — each
// column set's Folds, each lost cell's SourceRuns, the Syndromes — lands the
// same accumulators over MemStores, which fold each block onto its takers
// where it lies, as over stores that cannot and go through scratch; a written
// stripe and one never written alike. The finished Folds buffer holds the lost
// columns, a SourceRuns accumulator its cell, and the syndromes are zero.
func TestFoldInPlaceMatchesPortable(t *testing.T) {
	const bs = 64
	for _, code := range append([]layout.Code{core.MustNew(3), core.MustNew(13)}, codesUnderTest()...) {
		g := code.Geometry()
		var arrays [2]*Array
		for i, backend := range []vdisk.Backend{vdisk.MemBackend{}, foldless{}} {
			disks, err := vdisk.NewArrayBackend(g.Cols, bs, backend)
			if err != nil {
				t.Fatal(err)
			}
			if arrays[i], err = Wrap(code, disks); err != nil {
				t.Fatal(err)
			}
			if err := arrays[i].WriteStripe(1, randBlocks(rand.New(rand.NewSource(int64(g.P))), arrays[i].DataPerStripe(), bs)); err != nil {
				t.Fatal(err)
			}
		}
		a := arrays[0]
		run := func(ctx string, st int64, folds []layout.ColumnFold, blocks int) []byte {
			t.Helper()
			var acc [2][]byte
			for i, arr := range arrays {
				acc[i] = bytes.Repeat([]byte{0xA5}, blocks*bs)
				if err := arr.fold(st, folds, acc[i]); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
			}
			if !bytes.Equal(acc[0], acc[1]) {
				t.Fatalf("%s: the accumulators folded in place differ from the portable ones", ctx)
			}
			return acc[0]
		}
		cell := make([]byte, bs)
		for st := int64(1); st <= 2; st++ { // stripe 2 was never written
			if syn := run(fmt.Sprintf("%s stripe %d syndromes", code.Name(), st), st, a.dec.Syndromes(), len(a.chains)); !bytes.Equal(syn, make([]byte, len(syn))) {
				t.Fatalf("%s stripe %d: a consistent stripe has a non-zero syndrome", code.Name(), st)
			}
			for c0 := 0; c0 < g.Cols; c0++ {
				for c1 := c0; c1 < g.Cols; c1++ {
					cols := layout.Columns{}.With(c0).With(c1)
					plan := a.dec.ColumnPlan(cols)
					if plan == nil {
						continue // EVENODD's double data-column loss has none
					}
					ctx := fmt.Sprintf("%s stripe %d columns %d,%d", code.Name(), st, c0, c1)
					acc := run(ctx, st, plan.Folds(), cols.Len()*g.Rows)
					plan.Finish(acc)
					for k := 0; k < cols.Len(); k++ {
						for r := 0; r < g.Rows; r++ {
							c := layout.Coord{Row: r, Col: cols.At(k)}
							if err := a.readCell(st, c, cell); err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(acc[(k*g.Rows+r)*bs:(k*g.Rows+r+1)*bs], cell) {
								t.Fatalf("%s: the finished buffer does not hold cell %v", ctx, c)
							}
							if !bytes.Equal(run(fmt.Sprintf("%s cell %v", ctx, c), st, plan.SourceRuns(c), 1), cell) {
								t.Fatalf("%s: cell %v's sources do not fold to it", ctx, c)
							}
						}
					}
				}
			}
		}
	}
}
