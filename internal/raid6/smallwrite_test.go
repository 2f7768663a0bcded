package raid6

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// TestConcurrentSmallWritesKeepParity is the lost-parity-update race of
// ROADMAP item 1, healthy-array half: four goroutines write blocks of one
// stripe at the same time, two of them the same block. Every chain of the
// stripe must hold afterwards and every block must read back one of the
// values written to it. With each parity's read, XOR and write as three disk
// calls the stripe ended inconsistent round after round; as one Disk.Xor per
// parity behind one Disk.Swap it cannot. Run it under -race too.
func TestConcurrentSmallWritesKeepParity(t *testing.T) {
	const bs, rounds, writes = 1024, 100, 20
	targets := []int64{0, 1, 5, 1} // writers 1 and 3 share a block; 0, 1 share a row, 1, 5 a diagonal or a column
	for _, rotate := range []bool{false, true} {
		t.Run(fmt.Sprintf("rotate=%v", rotate), func(t *testing.T) {
			a := New(core.MustNew(5), bs)
			a.SetTelemetry(telemetry.NewRegistry(), nil)
			a.SetRotation(rotate)
			const stripe = 3
			base := stripe * int64(a.DataPerStripe())
			for round := 0; round < rounds; round++ {
				written := make([][][]byte, len(targets))
				var wg sync.WaitGroup
				start := make(chan struct{}) // the writers leave together, or the first is done before the last is scheduled
				for g, off := range targets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < writes; i++ {
							blk := bytes.Repeat([]byte{byte(g + 1), byte(round), byte(i), 0x5A}, bs/4)
							if err := a.WriteBlock(base+off, blk); err != nil {
								t.Errorf("writer %d: %v", g, err)
								return
							}
							written[g] = append(written[g], blk)
						}
					}()
				}
				close(start)
				wg.Wait()
				if ok, err := a.VerifyStripe(stripe); err != nil || !ok {
					t.Fatalf("round %d: the stripe's parities do not match its data (ok=%v err=%v)", round, ok, err)
				}
				got := make([]byte, bs)
				for g, off := range targets {
					if err := a.ReadBlock(base+off, got); err != nil {
						t.Fatal(err)
					}
					found := false
					for h, other := range targets {
						for _, blk := range written[h] {
							found = found || (other == off && bytes.Equal(got, blk))
						}
					}
					if !found {
						t.Fatalf("round %d: block %d (writer %d's) holds %v, a value nobody wrote to it", round, off, g, got[:4])
					}
				}
			}
		})
	}
}

// TestSmallWriteCascade: in every code a small write is one disk operation on
// the data cell and one on each parity of its cascade — for RDP and HDP, whose
// parities are covered by other chains, more than the two of the cell's own
// chains — each one read and one write, and the stripe verifies afterwards.
func TestSmallWriteCascade(t *testing.T) {
	for _, code := range codesUnderTest() {
		reg := telemetry.NewRegistry()
		a := New(code, 16)
		a.SetTelemetry(reg, nil)
		fillRandom(t, a, 1, rand.New(rand.NewSource(3)))
		longest := 0
		for L := int64(0); L < int64(a.DataPerStripe()); L++ {
			_, cell := a.Locate(L)
			// The cascade, worked out the slow way.
			var parities []layout.Coord
			for queue := []layout.Coord{cell}; len(queue) > 0; queue = queue[1:] {
				for _, ci := range layout.ChainsCovering(code, queue[0]) {
					parities = append(parities, code.Chains()[ci].Parity)
					queue = append(queue, code.Chains()[ci].Parity)
				}
			}
			longest = max(longest, len(parities))
			a.Disks().ResetStats()
			xors, updates := reg.Counter("raid6.xors").Value(), reg.Counter("raid6.parity_updates").Value()
			if err := a.WriteBlock(L, bytes.Repeat([]byte{byte(L + 1)}, 16)); err != nil {
				t.Fatalf("%s block %d: %v", code.Name(), L, err)
			}
			ops := int64(1 + len(parities))
			if st := a.Disks().TotalStats(); st.Reads != ops || st.Writes != ops {
				t.Errorf("%s block %d: %d reads / %d writes, want %d of each (the cell and %d parities)", code.Name(), L, st.Reads, st.Writes, ops, len(parities))
			}
			if got := reg.Counter("raid6.xors").Value() - xors; got != ops {
				t.Errorf("%s block %d: raid6.xors moved by %d, want %d (the delta and one fold a parity)", code.Name(), L, got, ops)
			}
			if got := reg.Counter("raid6.parity_updates").Value() - updates; got != ops-1 {
				t.Errorf("%s block %d: raid6.parity_updates moved by %d, want %d", code.Name(), L, got, ops-1)
			}
			if ok, err := a.VerifyStripe(0); err != nil || !ok {
				t.Fatalf("%s block %d: stripe inconsistent after the write (ok=%v err=%v)", code.Name(), L, ok, err)
			}
		}
		switch code.Name() {
		case "code56":
			if longest != 2 {
				t.Errorf("Code 5-6: a data cell's cascade reaches %d parities, want 2 (optimal update complexity)", longest)
			}
		case "rdp", "hdp":
			if longest <= 2 {
				t.Errorf("%s: no data cell's cascade is longer than its own two chains; the test does not cover a cascade", code.Name())
			}
		}
	}
}

// foldless is a memory backend whose stores hide MemStore's in-place fold, so
// Disk.Xor takes the read, fold, write path every other store gets.
type foldless struct{}

func (foldless) Open(id, blockSize int) (vdisk.BlockStore, error) {
	return struct{ vdisk.BlockStore }{vdisk.NewMemStore(blockSize)}, nil
}

// faultyWrites drives an array through a fixed series of small and
// partial-stripe writes under an armed injector and returns everything a run
// leaves behind: each write's error, every disk's Stats and bytes, and what a
// read of every block then meets (the latent sectors discovered, and the
// injector's position, which decides the transients the probe draws).
func faultyWrites(t *testing.T, backend vdisk.Backend, cfg vdisk.FaultConfig) []string {
	t.Helper()
	const bs, stripes = 32, 2
	code := core.MustNew(7)
	disks, err := vdisk.NewArrayBackend(code.Geometry().Cols, bs, backend)
	if err != nil {
		t.Fatal(err)
	}
	disks.SetTelemetry(telemetry.NewRegistry(), nil)
	a, err := Wrap(code, disks)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	for st := int64(0); st < stripes; st++ {
		if err := a.WriteStripe(st, randBlocks(r, a.DataPerStripe(), bs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := disks.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	disks.ResetStats()
	var trail []string
	blocks := int64(a.DataPerStripe() * stripes)
	for i := 0; i < 24; i++ {
		n := 1 + r.Int63n(int64(a.DataPerStripe())-1) // never a whole stripe
		first := r.Int63n(blocks - n)
		data := make([]byte, n*bs)
		r.Read(data)
		trail = append(trail, fmt.Sprintf("write %d [%d,+%d): %v", i, first, n, a.WriteRange(first, data)))
	}
	rows := int64(stripes * code.Geometry().Rows)
	for i := 0; i < disks.Len(); i++ {
		d := disks.Disk(i)
		media := make([]byte, rows*bs)
		if _, err := d.Store().ReadAt(media, 0); err != nil {
			t.Fatal(err)
		}
		trail = append(trail, fmt.Sprintf("disk %d: %+v %x", i, d.Stats(), media))
		buf := make([]byte, bs)
		for b := int64(0); b < rows; b++ {
			trail = append(trail, fmt.Sprintf("disk %d probe %d: %v", i, b, d.Read(b, buf)))
		}
	}
	return trail
}

// TestPartialStripeWriteReplaysUnderOneSeed: two runs of the same writes under
// the same fault seed leave identical errors, Stats, bytes and injector
// positions. The diagonal parities share a disk, so the order in which a
// partial-stripe write folds its aggregated deltas decides which parity meets
// which draw; it is chain order, not a map's.
func TestPartialStripeWriteReplaysUnderOneSeed(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := vdisk.FaultConfig{Seed: seed, ReadTransientProb: 0.04, WriteTransientProb: 0.04, LatentProb: 0.02}
		first := faultyWrites(t, vdisk.MemBackend{}, cfg)
		failed := 0
		for _, line := range first {
			if strings.HasPrefix(line, "write") && !strings.HasSuffix(line, "<nil>") {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("seed %d: no write met a fault; the scenario does not cover one", seed)
		}
		for run := 0; run < 3; run++ {
			again := faultyWrites(t, vdisk.MemBackend{}, cfg)
			for i := range first {
				if first[i] != again[i] {
					t.Fatalf("seed %d, run %d diverges from the first at:\n  %s\n  %s", seed, run+2, first[i], again[i])
				}
			}
		}
	}
}

// TestFoldInPlaceAndPortableAgree: an array whose stores hide the in-place
// fold ends byte for byte, count for count and fault for fault where one over
// plain MemStores does, with and without an armed injector.
func TestFoldInPlaceAndPortableAgree(t *testing.T) {
	for _, cfg := range []vdisk.FaultConfig{
		{},
		{Seed: 4, ReadTransientProb: 0.04, WriteTransientProb: 0.04, LatentProb: 0.02},
	} {
		inPlace := faultyWrites(t, vdisk.MemBackend{}, cfg)
		portable := faultyWrites(t, foldless{}, cfg)
		for i := range inPlace {
			if inPlace[i] != portable[i] {
				t.Fatalf("faults %+v: the two arrays diverge at:\n  in place: %s\n  portable: %s", cfg, inPlace[i], portable[i])
			}
		}
	}
}
