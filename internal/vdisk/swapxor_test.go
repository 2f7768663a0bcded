package vdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"code56/internal/telemetry"
	"code56/internal/xorblk"
)

// noFold is a store with the fold capability hidden: Disk.Xor over it takes
// the portable read, fold, write path.
type noFold struct{ BlockStore }

// swapXorDisks returns three identical disks on private registries: ref is
// driven with the Read-then-Write sequences Swap and Xor replace, inPlace
// (a MemStore) and portable (the same store with XorAt hidden) with the
// operations themselves.
func swapXorDisks(blockSize int) (disks [3]*Disk, regs [3]*telemetry.Registry) {
	for i := range disks {
		var store BlockStore = NewMemStore(blockSize)
		if i == 2 {
			store = noFold{store}
		}
		disks[i] = NewDiskStore(0, blockSize, store)
		regs[i] = telemetry.NewRegistry()
		disks[i].SetTelemetry(regs[i], nil)
	}
	return disks, regs
}

// refSwap and refXor are what the arrays did before Swap and Xor existed.
func refSwap(d *Disk, b int64, data, old []byte) error {
	if err := d.Read(b, old); err != nil {
		return err
	}
	return d.Write(b, data)
}

func refXor(d *Disk, b int64, delta []byte) error {
	cur := make([]byte, len(delta))
	if err := d.Read(b, cur); err != nil {
		return err
	}
	xorblk.Xor(cur, delta)
	return d.Write(b, cur)
}

// TestSwapXorMatchReadThenWrite: under a seeded fault scenario Swap and Xor
// meet the injector exactly as the Read followed by a Write they replace —
// same errors operation by operation, same bytes, same injector position and
// next draw — over a store that folds in place and over one that does not.
// With no write-side fault armed the block-I/O accounting agrees too; a
// write-side fault is the one difference by design: the reference has counted
// its read by then, the all-or-nothing operation counts nothing.
func TestSwapXorMatchReadThenWrite(t *testing.T) {
	const bs, blocks, ops = 32, 24, 200
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 30; seed++ {
		writeFaults := seed%3 == 0
		disks, regs := swapXorDisks(bs)
		fill := make([]byte, blocks*bs)
		rand.New(rand.NewSource(seed)).Read(fill)
		cfg := FaultConfig{Seed: seed, ReadTransientProb: 0.03, LatentProb: 0.02}
		if writeFaults {
			cfg.WriteTransientProb = 0.05
		}
		if seed%10 == 0 {
			cfg.FailAtIO = 2*ops - 41 // a scheduled fail-stop late in the run, on whichever side it falls
		}
		for _, d := range disks {
			// The last few blocks stay unwritten: folding into a hole.
			if err := d.WriteBlocks(0, fill[:(blocks-4)*bs]); err != nil {
				t.Fatal(err)
			}
			if err := d.SetFaults(cfg); err != nil {
				t.Fatal(err)
			}
			d.ResetStats()
		}
		rng := rand.New(rand.NewSource(seed + 1000))
		data, writeSideFaults := make([]byte, bs), int64(0)
		var old [3][]byte
		for i := range old {
			old[i] = make([]byte, bs)
		}
		for op := 0; op < ops; op++ {
			b := rng.Int63n(blocks)
			rng.Read(data)
			swap := rng.Intn(2) == 0
			var errs [3]error
			readsBefore := disks[0].Stats().Reads
			for i, d := range disks {
				switch {
				case swap && i == 0:
					errs[i] = refSwap(d, b, data, old[i])
				case swap:
					errs[i] = d.Swap(b, data, old[i])
				case i == 0:
					errs[i] = refXor(d, b, data)
				default:
					errs[i] = d.Xor(b, data)
				}
			}
			for i := 1; i < 3; i++ {
				if fmt.Sprint(errs[i]) != fmt.Sprint(errs[0]) {
					t.Fatalf("seed %d op %d (swap=%v block %d): reference %v, disk %d %v", seed, op, swap, b, errs[0], i, errs[i])
				}
				if swap && errs[0] == nil && !bytes.Equal(old[i], old[0]) {
					t.Fatalf("seed %d op %d: Swap on disk %d handed back different old contents", seed, op, i)
				}
			}
			switch err := errs[0]; {
			case err == nil:
				outcomes["ok"]++
			case disks[0].Stats().Reads > readsBefore:
				outcomes["write-side fault"]++
				writeSideFaults++
			case errors.Is(err, ErrLatent):
				outcomes["latent"]++
			case errors.Is(err, ErrTransient):
				outcomes["read transient"]++
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
			got, want := make([]byte, blocks*bs), make([]byte, blocks*bs)
			if _, err := d.Store().ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.Store().ReadAt(want, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d disk %d: media differ from the reference", seed, i)
			}
			if ref.BlocksInUse() != d.BlocksInUse() && i == 1 {
				t.Errorf("seed %d: blocks in use: reference %d, in-place %d", seed, ref.BlocksInUse(), d.BlocksInUse())
			}
			if !writeFaults && cfg.FailAtIO == 0 {
				sameAccounting(t, ref, d, regs[0], regs[i])
				continue
			}
			// Everything agrees except the reads the reference counted ahead
			// of its failed writes.
			rs, ds := ref.Stats(), d.Stats()
			if rs.Writes != ds.Writes || rs.Reads-ds.Reads != writeSideFaults {
				t.Errorf("seed %d disk %d: Stats %+v against the reference's %+v with %d write-side faults", seed, i, ds, rs, writeSideFaults)
			}
			for _, name := range []string{"vdisk.transient_errors", "vdisk.latent_errors", "vdisk.failures", "vdisk.read_errors", "vdisk.write_errors", "vdisk.writes"} {
				if r, g := regs[0].Counter(name).Value(), regs[i].Counter(name).Value(); r != g {
					t.Errorf("seed %d disk %d: %s %d, reference %d", seed, i, name, g, r)
				}
			}
		}
	}
	for _, kind := range []string{"ok", "write-side fault", "latent", "read transient", "failed"} {
		if outcomes[kind] == 0 {
			t.Errorf("no operation ended %q: the scenario does not cover it (%v)", kind, outcomes)
		}
	}
}

// TestSwapXorLatencyObservations: an operation that makes two store calls is
// observed once in each latency histogram; an in-place fold is one store call,
// observed as a write.
func TestSwapXorLatencyObservations(t *testing.T) {
	const bs = 64
	disks, regs := swapXorDisks(bs)
	blk, old := bytes.Repeat([]byte{3}, bs), make([]byte, bs)
	for i, want := range [][2]int64{{1, 2}, {2, 2}} {
		i++ // disks[0] is the reference
		d := disks[i]
		if err := d.Swap(1, blk, old); err != nil {
			t.Fatal(err)
		}
		if err := d.Xor(1, blk); err != nil {
			t.Fatal(err)
		}
		h := regs[i].Snapshot().Histograms
		if r, w := h["vdisk.disk.0.read_latency_us"].Count, h["vdisk.disk.0.write_latency_us"].Count; r != want[0] || w != want[1] {
			t.Errorf("disk %d: %d read and %d write latency observations after one Swap and one Xor, want %d and %d", i, r, w, want[0], want[1])
		}
		if st := d.Stats(); st != (Stats{Reads: 2, Writes: 2}) {
			t.Errorf("disk %d: Stats %+v after one Swap and one Xor, want 2 reads and 2 writes", i, st)
		}
	}
}

// TestSwapXorLatentBlock: a latent sector fails both operations with
// ErrLatent — the old contents are part of either result — and leaves the
// store, the accounting and the latent mark untouched. A Write heals it.
func TestSwapXorLatentBlock(t *testing.T) {
	const bs = 32
	disks, regs := swapXorDisks(bs)
	for i, d := range disks[1:] {
		was := bytes.Repeat([]byte{9}, bs)
		if err := d.Write(5, was); err != nil {
			t.Fatal(err)
		}
		d.InjectLatentError(5)
		d.ResetStats()
		blk, old := bytes.Repeat([]byte{1}, bs), make([]byte, bs)
		if err := d.Swap(5, blk, old); !errors.Is(err, ErrLatent) {
			t.Errorf("Swap of a latent block = %v, want ErrLatent", err)
		}
		if err := d.Xor(5, blk); !errors.Is(err, ErrLatent) {
			t.Errorf("Xor of a latent block = %v, want ErrLatent", err)
		}
		got := make([]byte, bs)
		if _, err := d.Store().ReadAt(got, 5*bs); err != nil || !bytes.Equal(got, was) {
			t.Errorf("the store changed under a refused operation (err %v)", err)
		}
		if st := d.Stats(); st.Total() != 0 {
			t.Errorf("refused operations counted I/O: %+v", st)
		}
		if got := regs[i+1].Counter("vdisk.latent_errors").Value(); got != 2 {
			t.Errorf("vdisk.latent_errors = %d, want 2", got)
		}
		if err := d.Read(5, got); !errors.Is(err, ErrLatent) {
			t.Errorf("the latent mark did not survive: Read = %v", err)
		}
		if err := d.Write(5, was); err != nil {
			t.Fatal(err)
		}
		if err := d.Swap(5, blk, old); err != nil || !bytes.Equal(old, was) {
			t.Errorf("Swap after the healing write: err %v, old contents right %v", err, bytes.Equal(old, was))
		}
	}
}

// TestSwapXorRefusals: a fail-stopped disk, wrong lengths and negative
// addresses.
func TestSwapXorRefusals(t *testing.T) {
	const bs = 16
	d := NewDisk(0, bs)
	buf := make([]byte, 2*bs)
	for _, c := range []struct {
		name           string
		b              int64
		data, old, dlt int
	}{
		{"negative address", -1, bs, bs, bs},
		{"short data", 0, bs - 1, bs, bs - 1},
		{"two blocks", 0, 2 * bs, bs, 2 * bs},
		{"empty", 0, 0, bs, 0},
	} {
		if err := d.Swap(c.b, buf[:c.data], buf[bs:bs+c.old]); !errors.Is(err, ErrBadBlock) {
			t.Errorf("Swap %s = %v, want ErrBadBlock", c.name, err)
		}
		if err := d.Xor(c.b, buf[:c.dlt]); !errors.Is(err, ErrBadBlock) {
			t.Errorf("Xor %s = %v, want ErrBadBlock", c.name, err)
		}
	}
	if err := d.Swap(0, buf[:bs], nil); !errors.Is(err, ErrBadBlock) {
		t.Errorf("Swap without an old buffer = %v, want ErrBadBlock", err)
	}
	d.Fail()
	if err := d.Swap(0, buf[:bs], buf[bs:]); !errors.Is(err, ErrFailed) {
		t.Errorf("Swap on a failed disk = %v, want ErrFailed", err)
	}
	if err := d.Xor(0, buf[:bs]); !errors.Is(err, ErrFailed) {
		t.Errorf("Xor on a failed disk = %v, want ErrFailed", err)
	}
	if st := d.Stats(); st.Total() != 0 {
		t.Errorf("refused operations counted I/O: %+v", st)
	}
}

// TestSwapXorRetryTransients: the retry policy covers the whole operation;
// failed attempts count nothing and store nothing.
func TestSwapXorRetryTransients(t *testing.T) {
	const bs, rounds = 16, 40
	disks, regs := swapXorDisks(bs)
	for i, d := range disks[1:] {
		if err := d.SetRetry(50, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.SetFaults(FaultConfig{Seed: 5, ReadTransientProb: 0.2, WriteTransientProb: 0.2}); err != nil {
			t.Fatal(err)
		}
		want, delta, old := make([]byte, bs), make([]byte, bs), make([]byte, bs)
		for r := 0; r < rounds; r++ {
			for j := range delta {
				delta[j] = byte(r + j + 1)
			}
			if r%2 == 0 {
				if err := d.Swap(3, delta, old); err != nil {
					t.Fatalf("Swap %d not absorbed by 50 retries: %v", r, err)
				}
				if !bytes.Equal(old, want) {
					t.Fatalf("Swap %d handed back %v, want %v", r, old, want)
				}
				copy(want, delta)
			} else {
				if err := d.Xor(3, delta); err != nil {
					t.Fatalf("Xor %d not absorbed by 50 retries: %v", r, err)
				}
				xorblk.Xor(want, delta)
			}
		}
		if st := d.Stats(); st != (Stats{Reads: rounds, Writes: rounds}) {
			t.Errorf("Stats %+v, want %d reads and writes (failed attempts are not counted)", st, rounds)
		}
		if regs[i+1].Counter("vdisk.retries").Value() == 0 {
			t.Error("a 20% transient rate on either side needed no retry in 40 operations")
		}
		// With no retry budget the transient surfaces.
		if err := d.SetRetry(0, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		for r := 0; r < 200 && err == nil; r++ {
			err = d.Xor(3, delta)
		}
		if !errors.Is(err, ErrTransient) {
			t.Errorf("200 unretried folds at a 20%% transient rate ended with %v, want ErrTransient", err)
		}
	}
}

// TestXorOfUnwrittenBlockStoresDelta: a block never written reads as zero, so
// folding into it is writing the delta — it becomes a block in use.
func TestXorOfUnwrittenBlockStoresDelta(t *testing.T) {
	const bs = 64
	disks, _ := swapXorDisks(bs)
	delta, got := bytes.Repeat([]byte{0xC3}, bs), make([]byte, bs)
	for i, d := range disks[1:] {
		if err := d.Xor(70, delta); err != nil { // slab 1 of a store that has no slab yet
			t.Fatal(err)
		}
		if err := d.Read(70, got); err != nil || !bytes.Equal(got, delta) {
			t.Errorf("disk %d: block reads back %v (err %v), want the delta", i+1, got[:4], err)
		}
		if i == 0 && d.BlocksInUse() != 1 {
			t.Errorf("BlocksInUse = %d after one fold, want 1", d.BlocksInUse())
		}
		if err := d.Swap(71, delta, got); err != nil || !bytes.Equal(got, make([]byte, bs)) {
			t.Errorf("disk %d: Swap of an unwritten block handed back %v (err %v), want zeros", i+1, got[:4], err)
		}
	}
}

// pairedStore checks that the store sees the portable Swap and Xor as what
// they are: a ReadAt and the WriteAt of the same offset next to each other,
// with no other call — a Reset from Replace above all — between the halves.
type pairedStore struct {
	BlockStore              // a MemStore; embedded as the interface, so its XorAt stays hidden
	pending    atomic.Int64 // offset+1 of a ReadAt waiting for its WriteAt, 0 for none
	torn       atomic.Int64
}

func (s *pairedStore) ReadAt(p []byte, off int64) (int, error) {
	if !s.pending.CompareAndSwap(0, off+1) {
		s.torn.Add(1)
	}
	return s.BlockStore.ReadAt(p, off)
}

func (s *pairedStore) WriteAt(p []byte, off int64) (int, error) {
	if !s.pending.CompareAndSwap(off+1, 0) {
		s.torn.Add(1)
	}
	return s.BlockStore.WriteAt(p, off)
}

func (s *pairedStore) Reset() error {
	if s.pending.Load() != 0 {
		s.torn.Add(1)
	}
	return s.BlockStore.(Resetter).Reset()
}

// TestSwapXorAreOneOperation hammers one block with Swap and Xor from several
// goroutines while another fails and replaces the disk (run it under -race).
// Nothing may fall between an operation's two store calls, an operation
// returns nil or ErrFailed, and once the disk is left alone the block obeys
// the algebra of atomic operations: the XOR of everything swapped in, handed
// back, folded and finally stored is zero.
func TestSwapXorAreOneOperation(t *testing.T) {
	const bs, workers, rounds = 64, 4, 2000
	for _, tc := range []struct {
		name  string
		store func() (BlockStore, *pairedStore)
	}{
		{"in-place", func() (BlockStore, *pairedStore) { return NewMemStore(bs), nil }},
		{"portable", func() (BlockStore, *pairedStore) {
			s := &pairedStore{BlockStore: NewMemStore(bs)}
			return s, s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, paired := tc.store()
			d := NewDiskStore(0, bs, store)
			d.SetTelemetry(telemetry.NewRegistry(), nil)
			// hammer returns the XOR of everything the workers swapped in,
			// were handed back and folded.
			hammer := func(replace bool) []byte {
				var wg sync.WaitGroup
				sums := make([][]byte, workers)
				for w := range sums {
					sums[w] = make([]byte, bs)
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w)))
						blk, old := make([]byte, bs), make([]byte, bs)
						for r := 0; r < rounds; r++ {
							rng.Read(blk)
							var err error
							if rng.Intn(2) == 0 {
								if err = d.Swap(9, blk, old); err == nil {
									xorblk.Xor(sums[w], old)
								}
							} else {
								err = d.Xor(9, blk)
							}
							if err == nil {
								xorblk.Xor(sums[w], blk)
							} else if !errors.Is(err, ErrFailed) && !errors.Is(err, ErrStale) {
								t.Errorf("worker %d: %v", w, err)
								return
							}
						}
					}()
				}
				stop, stopped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(stopped)
					for replace {
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
				total := make([]byte, bs)
				for _, s := range sums {
					xorblk.Xor(total, s)
				}
				return total
			}
			hammer(true)
			d.Replace()
			// The workers alone with a disk, from a block known to be zero: the
			// medium Replace wiped, under a new disk that holds none of it stale.
			d = NewDiskStore(0, bs, store)
			total := hammer(false)
			final := make([]byte, bs)
			if err := d.Read(9, final); err != nil {
				t.Fatal(err)
			}
			xorblk.Xor(total, final)
			if !xorblk.IsZero(total) {
				t.Error("an update was lost: swapped-in, handed-back, folded and final contents do not cancel")
			}
			if paired != nil && paired.torn.Load() != 0 {
				t.Errorf("%d store calls fell between the two halves of an operation", paired.torn.Load())
			}
		})
	}
}
