package vdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/xorblk"
)

// refReadFold is ReadFold spelled out the way a parity computation would do it
// without one: the run the lanes span copied out with ReadBlocks, then each
// lane, one after the other, stored or XORed from that copy.
func refReadFold(d *Disk, b int64, acc []byte, lanes []layout.FoldRun) error {
	bs, lo, hi := d.BlockSize(), lanes[0].Row, 0
	for _, l := range lanes {
		lo, hi = min(lo, l.Row), max(hi, l.Row+l.N)
	}
	run := make([]byte, (hi-lo)*bs)
	if err := d.ReadBlocks(b+int64(lo), run); err != nil {
		return err
	}
	for _, l := range lanes {
		src, dst := run[(l.Row-lo)*bs:(l.Row-lo+l.N)*bs], acc[l.Acc*bs:(l.Acc+l.N)*bs]
		if l.First {
			copy(dst, src)
		} else {
			xorblk.Xor(dst, src)
		}
	}
	return nil
}

// randomLanes returns the lanes of one read-fold over a run of n blocks whose
// rows start at sh, onto 2n accumulators: one lane over the whole run onto the
// first n, a first contributor or not, and up to two XOR lanes onto the last n
// that take some of the same blocks again and may meet each other there — so
// the order the lanes are run in cannot change the result, and some blocks
// have two or three takers — in row order. One op in three is the one-lane
// read-XOR.
func randomLanes(rng *rand.Rand, n, sh int) []layout.FoldRun {
	lanes := []layout.FoldRun{{Row: sh, N: n, First: rng.Intn(2) == 0}}
	for k := rng.Intn(3); k > 0; k-- {
		row := rng.Intn(n)
		m := 1 + rng.Intn(n-row)
		lanes = append(lanes, layout.FoldRun{Row: sh + row, N: m, Acc: n + rng.Intn(n-m+1)})
	}
	slices.SortStableFunc(lanes, func(a, b layout.FoldRun) int { return a.Row - b.Row }) // ReadFold takes them in row order
	return lanes
}

// TestReadXorMatchesReadThenFold: under a seeded fault scenario ReadFold is the
// ReadBlocks-into-scratch and fold it replaces — the same error run by run,
// the same accumulators (untouched by a run that failed), the same block-I/O
// accounting and latency observations, the same injector position and next
// draw — for runs of one block and of several, some across the boundary of two
// slabs and some over blocks never written, with one lane and with several
// that take a block twice, with no retry policy and with one, on a store that
// folds in place and on one that does not.
func TestReadXorMatchesReadThenFold(t *testing.T) {
	const bs, blocks, ops = 32, 80, 150 // one page a block, so blocks 63 and 64 lie in different slabs
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 30; seed++ {
		disks, regs := swapXorDisks(bs)
		fill := make([]byte, blocks*bs)
		rand.New(rand.NewSource(seed)).Read(fill)
		cfg := FaultConfig{Seed: seed, ReadTransientProb: 0.02, LatentProb: 0.01}
		if seed%10 == 0 {
			cfg.FailAtIO = 2 * ops // a scheduled fail-stop late in the run, in the middle of one
		}
		for _, d := range disks {
			// The last few blocks stay unwritten: folding from a hole.
			if err := d.WriteBlocks(0, fill[:(blocks-4)*bs]); err != nil {
				t.Fatal(err)
			}
			if err := d.SetFaults(cfg); err != nil {
				t.Fatal(err)
			}
			if err := d.SetRetry(int(seed%3), 0); err != nil {
				t.Fatal(err)
			}
			d.ResetStats()
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		var acc [3][]byte
		for i := range acc {
			acc[i] = make([]byte, 12*bs)
		}
		for op := 0; op < ops; op++ {
			n := 1
			if rng.Intn(3) > 0 {
				n = 2 + rng.Intn(5)
			}
			b := rng.Int63n(int64(blocks - n + 1))
			sh := int(min(b, rng.Int63n(3))) // lane rows count from b-sh, so the run starts at row sh
			lanes := randomLanes(rng, n, sh)
			rng.Read(acc[0][:2*n*bs])
			before := bytes.Clone(acc[0][:2*n*bs])
			var errs [3]error
			for i, d := range disks {
				copy(acc[i], before)
				if i == 0 {
					errs[i] = refReadFold(d, b-int64(sh), acc[i][:2*n*bs], lanes)
				} else {
					errs[i] = d.ReadFold(b-int64(sh), acc[i][:2*n*bs], lanes)
				}
			}
			for i := 1; i < 3; i++ {
				if fmt.Sprint(errs[i]) != fmt.Sprint(errs[0]) {
					t.Fatalf("seed %d op %d (%d blocks at %d): reference %v, disk %d %v", seed, op, n, b, errs[0], i, errs[i])
				}
				if !bytes.Equal(acc[i][:2*n*bs], acc[0][:2*n*bs]) {
					t.Fatalf("seed %d op %d (%d blocks at %d, lanes %v): disk %d's accumulators differ from the reference's", seed, op, n, b, lanes, i)
				}
			}
			switch err := errs[0]; {
			case err != nil && !bytes.Equal(acc[0][:2*n*bs], before):
				t.Fatalf("seed %d op %d: a run that failed (%v) changed the accumulators", seed, op, err)
			case err == nil && n == 1:
				outcomes["ok, one block"]++
			case err == nil && b < slabPages && b+int64(n) > slabPages:
				outcomes["ok, two slabs"]++
			case err == nil && b+int64(n) > blocks-4:
				outcomes["ok, unwritten blocks"]++
			case err == nil && len(lanes) > 1:
				outcomes["ok, blocks with two takers"]++
			case err == nil:
				outcomes["ok"]++
			case errors.Is(err, ErrLatent):
				outcomes["latent"]++
			case errors.Is(err, ErrTransient):
				outcomes["transient"]++
			case errors.Is(err, ErrFailed):
				outcomes["failed"]++
			}
		}
		var nextDraw [3]int64
		for i, d := range disks {
			nextDraw[i] = d.faults.rng.Int63()
		}
		for i := 1; i < 3; i++ {
			ref, d := disks[0], disks[i]
			if ref.faults.ios != d.faults.ios || nextDraw[0] != nextDraw[i] {
				t.Errorf("seed %d disk %d: injector ended at a different position or draw", seed, i)
			}
			if ref.Failed() != d.Failed() || fmt.Sprint(ref.latent) != fmt.Sprint(d.latent) {
				t.Errorf("seed %d disk %d: fail-stop or latent state differs", seed, i)
			}
			sameAccounting(t, ref, d, regs[0], regs[i])
			const lat = "vdisk.disk.0.read_latency_us"
			if r, g := regs[0].Snapshot().Histograms[lat].Count, regs[i].Snapshot().Histograms[lat].Count; r != g || r == 0 {
				t.Errorf("seed %d disk %d: %d read latency observations, reference %d (one a served run)", seed, i, g, r)
			}
			if w := regs[i].Snapshot().Histograms["vdisk.disk.0.write_latency_us"].Count; w != 1 {
				t.Errorf("seed %d disk %d: %d write latency observations, want the fill's 1", seed, i, w)
			}
		}
	}
	for _, kind := range []string{"ok", "ok, one block", "ok, two slabs", "ok, unwritten blocks", "ok, blocks with two takers", "latent", "transient", "failed"} {
		if outcomes[kind] == 0 {
			t.Errorf("no run ended %q: the scenario does not cover it (%v)", kind, outcomes)
		}
	}
}

// TestReadFoldMatchesPortable: ReadFold over a MemStore lands the same bytes
// as over the same store with ReadFoldAt hidden, and as refReadFold, whatever
// the store's page size is to the disk's block size — a p=13 stripe's column
// across the boundary of two slabs, taken by two chains a cell as scrub's
// check takes it; first contributors over blocks never written and trimmed;
// lanes that meet on one block and on one accumulator.
func TestReadFoldMatchesPortable(t *testing.T) {
	const bs = 32
	cases := []struct {
		name  string
		b     int64
		lanes []layout.FoldRun
	}{
		{"p=13 column, blocks 60-71", 60, []layout.FoldRun{{N: 12, First: true}, {N: 5, Acc: 19}, {Row: 5, N: 7, Acc: 12, First: true}}},
		{"one lane", 62, []layout.FoldRun{{N: 4}}},
		{"first contributors over holes", 124, []layout.FoldRun{{Row: 2, N: 6, First: true}, {Row: 2, N: 6, Acc: 6}}},
		{"first contributors over trims", 18, []layout.FoldRun{{N: 6, First: true}, {Row: 3, N: 1, Acc: 7, First: true}}},
		{"two takers of one block, one accumulator", 7, []layout.FoldRun{{N: 1, First: true}, {Row: 1, N: 1}, {Row: 1, N: 1, Acc: 1, First: true}, {Row: 3, N: 1}}},
	}
	fill := make([]byte, 120*bs) // blocks 120 on stay unwritten
	rand.New(rand.NewSource(5)).Read(fill)
	for _, ps := range []int{bs, bs / 4, 2 * bs} {
		var disks [3]*Disk // in place, portable, and the reference's
		for i := range disks {
			var store BlockStore = NewMemStore(ps)
			if i == 1 {
				store = noFold{store}
			}
			disks[i] = NewDiskStore(0, bs, store)
			disks[i].SetTelemetry(telemetry.NewRegistry(), nil)
			if err := disks[i].WriteBlocks(0, fill); err != nil {
				t.Fatal(err)
			}
			disks[i].Trim(20)
			disks[i].Trim(21)
		}
		for _, c := range cases {
			ctx := fmt.Sprintf("pages of %d bytes, %s", ps, c.name)
			var acc [3][]byte
			acc[0] = make([]byte, 32*bs)
			rand.New(rand.NewSource(6)).Read(acc[0])
			acc[1], acc[2] = bytes.Clone(acc[0]), bytes.Clone(acc[0])
			for i, d := range disks[:2] {
				if err := d.ReadFold(c.b, acc[i], c.lanes); err != nil {
					t.Fatalf("%s: disk %d: %v", ctx, i, err)
				}
			}
			if err := refReadFold(disks[2], c.b, acc[2], c.lanes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(acc[0], acc[1]) || !bytes.Equal(acc[0], acc[2]) {
				t.Errorf("%s: in place, portable and reference disagree", ctx)
			}
		}
		if st := disks[0].Stats(); st != disks[1].Stats() || st != disks[2].Stats() {
			t.Errorf("pages of %d bytes: Stats %+v in place, %+v portable, %+v reference", ps, st, disks[1].Stats(), disks[2].Stats())
		}
	}
}

// TestReadXorRefusalsLeaveAccumulator: a latent block in the middle of the
// run, a fail-stopped disk, a closed store and a malformed request each fail
// the whole call, count nothing and leave the accumulators as they were —
// which is what lets a caller take the run again block by block.
func TestReadXorRefusalsLeaveAccumulator(t *testing.T) {
	const bs, n = 32, 4
	disks, regs := swapXorDisks(bs)
	one := []layout.FoldRun{{N: n}}
	for i, d := range disks[1:] {
		data := make([]byte, n*bs)
		rand.New(rand.NewSource(2)).Read(data)
		if err := d.WriteBlocks(10, data); err != nil {
			t.Fatal(err)
		}
		d.InjectLatentError(12)
		d.ResetStats()
		was := bytes.Repeat([]byte{0x5A}, 2*n*bs)
		acc := bytes.Clone(was)
		refused := func(what string, err, want error) {
			t.Helper()
			if !errors.Is(err, want) {
				t.Errorf("disk %d: ReadFold %s = %v, want %v", i+1, what, err, want)
			}
			if !bytes.Equal(acc, was) {
				t.Fatalf("disk %d: ReadFold %s changed the accumulators", i+1, what)
			}
			if st := d.Stats(); st.Total() != 0 {
				t.Fatalf("disk %d: ReadFold %s counted I/O: %+v", i+1, what, st)
			}
		}
		err := d.ReadFold(10, acc, []layout.FoldRun{{N: n, First: true}, {Row: 1, N: 2, Acc: n}})
		refused("over a latent block", err, ErrLatent)
		if want := "disk 0 block 12"; err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("error %q does not name %s", err, want)
		}
		if got := regs[i+1].Counter("vdisk.latent_errors").Value(); got != 1 {
			t.Errorf("vdisk.latent_errors = %d, want 1", got)
		}
		refused("with no lanes", d.ReadFold(10, acc, nil), ErrBadBlock)
		refused("of no blocks", d.ReadFold(10, acc, []layout.FoldRun{{N: 0}}), ErrBadBlock)
		refused("past the accumulators", d.ReadFold(10, acc[:n*bs-1], one), ErrBadBlock)
		refused("onto a negative accumulator", d.ReadFold(10, acc, []layout.FoldRun{{N: 1, Acc: -1}}), ErrBadBlock)
		refused("from a negative row", d.ReadFold(10, acc, []layout.FoldRun{{Row: -1, N: 1}}), ErrBadBlock)
		refused("with lanes out of row order", d.ReadFold(10, acc, []layout.FoldRun{{Row: 1, N: 1, First: true}, {N: 1, Acc: 1, First: true}}), ErrBadBlock)
		refused("at a negative address", d.ReadFold(-1, acc, one), ErrBadBlock)

		// The blocks either side of the latent one fold on their own.
		if err := d.ReadFold(10, acc, []layout.FoldRun{{N: 2}}); err != nil {
			t.Errorf("run ahead of the latent block: %v", err)
		}
		if err := d.ReadFold(10, acc, []layout.FoldRun{{Row: 3, N: 1, Acc: 3}}); err != nil {
			t.Errorf("block behind the latent block: %v", err)
		}
		xorblk.Xor(was[:2*bs], data[:2*bs])
		xorblk.Xor(was[3*bs:n*bs], data[3*bs:])
		if !bytes.Equal(acc, was) {
			t.Errorf("disk %d: three served blocks folded wrongly", i+1)
		}
		if st := d.Stats(); st != (Stats{Reads: 3}) {
			t.Errorf("disk %d: Stats %+v after folding three blocks, want 3 reads", i+1, st)
		}
		d.ResetStats()

		d.Fail()
		refused("on a failed disk", d.ReadFold(10, acc, one), ErrFailed)
		d.Replace()
		refused("on a replaced disk", d.ReadFold(10, acc, one), ErrStale)
		if err := d.WriteBlocks(10, data); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		refused("on a closed store", d.ReadFold(10, acc, one), os.ErrClosed)
	}
}

// TestReadXorRetriesTransients: the retry policy covers the run as it covers
// ReadBlocks; an attempt that failed folded nothing, so each served call folds
// its run exactly once.
func TestReadXorRetriesTransients(t *testing.T) {
	const bs, n, calls = 16, 8, 21 // an odd number of folds leaves the data in the accumulator
	disks, regs := swapXorDisks(bs)
	one := []layout.FoldRun{{N: n}}
	for i, d := range disks[1:] {
		data := make([]byte, n*bs)
		rand.New(rand.NewSource(3)).Read(data)
		if err := d.WriteBlocks(0, data); err != nil {
			t.Fatal(err)
		}
		if err := d.SetRetry(50, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.SetFaults(FaultConfig{Seed: 3, ReadTransientProb: 0.2}); err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		acc := make([]byte, n*bs)
		for c := 0; c < calls; c++ {
			if err := d.ReadFold(0, acc, one); err != nil {
				t.Fatalf("run %d not absorbed by 50 retries: %v", c, err)
			}
		}
		if !bytes.Equal(acc, data) {
			t.Errorf("disk %d: %d served folds did not each fold the run once", i+1, calls)
		}
		if got := d.Stats().Reads; got != calls*n {
			t.Errorf("Stats.Reads = %d, want %d (failed attempts are not counted)", got, calls*n)
		}
		if regs[i+1].Counter("vdisk.retries").Value() == 0 {
			t.Errorf("a 20%% per-block transient rate over %d eight-block runs needed no retry", calls)
		}
		// With no retry budget the transient surfaces, the accumulator untouched.
		if err := d.SetRetry(0, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		for c := 0; c < 200 && err == nil; c++ {
			copy(acc, data)
			if err = d.ReadFold(0, acc, one); err == nil && !xorblk.IsZero(acc) {
				t.Fatal("a served fold of the data into itself left something")
			}
		}
		if !errors.Is(err, ErrTransient) || !bytes.Equal(acc, data) {
			t.Errorf("200 unretried runs at a 20%% transient rate ended with %v (accumulator untouched: %v), want ErrTransient", err, bytes.Equal(acc, data))
		}
	}
}

// TestReadXorFoldsNothingFromUnusedPages: a page that was never written, one
// that was trimmed and one that belongs to a slab the store does not have fold
// nothing and give a first contributor zeros, whatever bytes lie there — on a
// slab another store filled and the free pool handed over poisoned, where only
// the occupancy word says which pages hold data. (Make ReadFoldAt trust the
// bytes and this fails on 0xA5.)
func TestReadXorFoldsNothingFromUnusedPages(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of what it is given")
	}
	const ps = 2048 // a page size of this test's own, so the pool holds nobody else's slabs
	poisonSlabs(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pool
	full := make([]byte, 2*slabPages*ps)
	rand.New(rand.NewSource(4)).Read(full)
	// A release and the refill after it can land on different Ps, and
	// sync.Pool keeps one item per P out of the others' reach: ask again.
	var s *MemStore
	for round := 0; round < 8 && s == nil; round++ {
		prev := NewMemStore(ps)
		if _, err := prev.WriteAt(full, 0); err != nil {
			t.Fatal(err)
		}
		if err := prev.Close(); err != nil {
			t.Fatal(err)
		}
		s = NewMemStore(ps)
		if _, err := s.WriteAt(full[3*ps:4*ps], 3*ps); err != nil {
			t.Fatal(err)
		}
		if s.slabs[0].data[0] != 0xA5 { // a fresh slab: nothing to be fooled by
			s.Close()
			s = nil
		}
	}
	if s == nil {
		t.Fatal("no recycled slab in 8 release-and-refill rounds")
	}
	d := NewDiskStore(0, ps, s)
	d.SetTelemetry(telemetry.NewRegistry(), nil)
	// Page 5 is written and trimmed (its bit goes, its bytes stay); page 63, the
	// last of slab 0, is in use; slab 1 does not exist; pages 64 and 65 come
	// into use with it later.
	if err := d.Write(5, full[5*ps:6*ps]); err != nil {
		t.Fatal(err)
	}
	d.Trim(5)
	if err := d.Write(63, full[63*ps:64*ps]); err != nil {
		t.Fatal(err)
	}
	// Each run is folded onto one accumulator and stored on a second.
	fold := func(b int64, n int, inUse ...int64) {
		t.Helper()
		acc := bytes.Repeat([]byte{0x0F}, 2*n*ps)
		want := bytes.Clone(acc)
		clear(want[n*ps:])
		for _, pg := range inUse {
			xorblk.Xor(want[(pg-b)*ps:(pg-b+1)*ps], full[pg*ps:(pg+1)*ps])
			copy(want[(int64(n)+pg-b)*ps:], full[pg*ps:(pg+1)*ps])
		}
		if err := d.ReadFold(b, acc, []layout.FoldRun{{N: n}, {N: n, Acc: n, First: true}}); err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			if acc[i] != want[i] {
				t.Fatalf("ReadFold(%d, %d blocks): byte %d of accumulator %d landed as %#x, want %#x", b, n, i%ps, i/ps, acc[i], want[i])
			}
		}
	}
	fold(0, 8, 3)   // unwritten, in use, trimmed
	fold(5, 1)      // the trimmed page alone
	fold(60, 8, 63) // across the boundary into a slab the store never had
	fold(1<<20, 4)  // far past the directory
	fold(3, 1, 3)   // all in use
	if err := d.WriteBlocks(64, full[64*ps:66*ps]); err != nil {
		t.Fatal(err)
	}
	fold(62, 5, 63, 64, 65) // both slabs, unused pages at either end
	fold(63, 3, 63, 64, 65) // both slabs, every page in use
}

// TestReadXorAgainstWriters is for the race detector: runs are folded out of a
// disk while other goroutines write and fold into the same blocks and another
// fails and replaces the disk. Every block only ever holds one byte repeated,
// so a run served is blocks of one byte each, and a run refused (ErrFailed is
// the only error there is) leaves the accumulator alone.
func TestReadXorAgainstWriters(t *testing.T) {
	const bs, n, rounds = 64, 4, 1500
	one := []layout.FoldRun{{N: n}}
	for name, store := range map[string]BlockStore{"in-place": NewMemStore(bs), "portable": noFold{NewMemStore(bs)}} {
		t.Run(name, func(t *testing.T) {
			d := NewDiskStore(0, bs, store)
			d.SetTelemetry(telemetry.NewRegistry(), nil)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					acc, blk := make([]byte, n*bs), make([]byte, bs)
					for r := 0; r < rounds; r++ {
						c := byte(rng.Intn(256))
						var err error
						switch {
						case w < 2:
							for i := range acc {
								acc[i] = c
							}
							if err = d.ReadFold(8, acc, one); err != nil && !bytes.Equal(acc, bytes.Repeat([]byte{c}, n*bs)) {
								t.Errorf("a refused run (%v) changed the accumulator", err)
								return
							}
							for i := range acc {
								if acc[i] != acc[i/bs*bs] {
									t.Errorf("block %d of a served run is torn: %#x then %#x", 8+i/bs, acc[i/bs*bs], acc[i])
									return
								}
							}
						default:
							for i := range blk {
								blk[i] = c
							}
							if w == 2 {
								err = d.Xor(8+rng.Int63n(n), blk)
							} else {
								err = d.Write(8+rng.Int63n(n), blk)
							}
						}
						if err != nil && !errors.Is(err, ErrFailed) && !errors.Is(err, ErrStale) {
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}
				}()
			}
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					select {
					case <-stop:
						return
					default:
					}
					d.Fail()
					d.Replace()
				}
			}()
			wg.Wait()
			close(stop)
			<-stopped
		})
	}
}

// TestReadFoldWalksManyLanes: a call with the lanes of a pass's run — a first
// contributor a stripe of four rows, and scores of XOR lanes, some over the
// stripe boundaries — lands on every accumulator what the lane-by-lane
// reference does, on a store that folds in place and on one that does not,
// with the run starting at a slab boundary and inside a block's page.
func TestReadFoldWalksManyLanes(t *testing.T) {
	const bs, n = 64, 48
	rng := rand.New(rand.NewSource(3))
	disks, _ := swapXorDisks(bs)
	fill := make([]byte, 200*bs)
	rng.Read(fill)
	for _, d := range disks {
		if err := d.WriteBlocks(0, fill[:150*bs]); err != nil { // the run's last blocks are holes
			t.Fatal(err)
		}
	}
	for _, b := range []int64{0, 120, 130} {
		var lanes []layout.FoldRun
		for j := 0; j < n/4; j++ {
			lanes = append(lanes, layout.FoldRun{Row: 4 * j, N: 4, Acc: 4 * j, First: true})
		}
		for i := 0; i < 60; i++ {
			row := rng.Intn(n)
			m := 1 + rng.Intn(min(6, n-row))
			lanes = append(lanes, layout.FoldRun{Row: row, N: m, Acc: n + rng.Intn(n-m+1)})
		}
		slices.SortStableFunc(lanes, func(a, b layout.FoldRun) int { return a.Row - b.Row })
		want := bytes.Repeat([]byte{0x5a}, 2*n*bs)
		if err := refReadFold(disks[1], b, want, lanes); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2} {
			got := bytes.Repeat([]byte{0x5a}, 2*n*bs)
			if err := disks[i].ReadFold(b, got, lanes); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("disk %d, run at block %d: the accumulators differ from the lane-by-lane reference", i, b)
			}
		}
	}
}
