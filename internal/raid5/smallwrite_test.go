package raid5

import (
	"bytes"
	"sync"
	"testing"

	"code56/internal/telemetry"
)

// TestConcurrentSmallWritesKeepParity is the lost-parity-update race of
// ROADMAP item 1, healthy-array half: goroutines writing blocks of one row at
// the same time — different blocks, and two of them the same block — must
// leave the row's parity equal to the XOR of the data that ended up stored,
// and every block holding one of the values written to it. With the parity's
// read, XOR and write as three disk calls every round lost an update; as one
// Disk.Xor behind one Disk.Swap none can. Run it under -race too.
func TestConcurrentSmallWritesKeepParity(t *testing.T) {
	const bs, rounds, writes = 1024, 100, 20
	for _, tc := range []struct {
		name    string
		targets []int64 // one writer goroutine per entry
	}{
		{"three blocks of a row", []int64{0, 1, 2}},
		{"two writers on one block", []int64{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := New(5, bs, LeftAsymmetric)
			a.SetTelemetry(telemetry.NewRegistry(), nil)
			for round := 0; round < rounds; round++ {
				written := make([][][]byte, len(tc.targets))
				var wg sync.WaitGroup
				start := make(chan struct{}) // the writers leave together, or the first is done before the last is scheduled
				for g, logical := range tc.targets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < writes; i++ {
							blk := bytes.Repeat([]byte{byte(g + 1), byte(round), byte(i), 0xA5}, bs/4)
							if err := a.WriteBlock(logical, blk); err != nil {
								t.Errorf("writer %d: %v", g, err)
								return
							}
							written[g] = append(written[g], blk)
						}
					}()
				}
				close(start)
				wg.Wait()
				if ok, err := a.VerifyRow(0); err != nil || !ok {
					t.Fatalf("round %d: the row's parity does not match its data (ok=%v err=%v)", round, ok, err)
				}
				got := make([]byte, bs)
				for g, logical := range tc.targets {
					if err := a.ReadBlock(logical, got); err != nil {
						t.Fatal(err)
					}
					found := false
					for h, other := range tc.targets {
						for _, blk := range written[h] {
							found = found || (other == logical && bytes.Equal(got, blk))
						}
					}
					if !found {
						t.Fatalf("round %d: block %d (writer %d's) holds %v, a value nobody wrote to it", round, logical, g, got[:4])
					}
				}
			}
		})
	}
}

// TestSmallWriteCounters: the healthy small write is one Swap and one Xor —
// two reads and two writes on two disks (TestRMWTouchesTwoDisks) — and still
// counts two block XORs and one parity update.
func TestSmallWriteCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	a, _ := New(5, 16, LeftAsymmetric)
	a.SetTelemetry(reg, nil)
	if err := a.WriteBlock(7, bytes.Repeat([]byte{1}, 16)); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot().Counters
	if err := a.WriteBlock(7, bytes.Repeat([]byte{2}, 16)); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"raid5.xors": 2, "raid5.parity_updates": 1, "raid5.block_writes": 1,
		"vdisk.reads": 2, "vdisk.writes": 2,
	} {
		if got := after[name] - before[name]; got != want {
			t.Errorf("%s moved by %d in one small write, want %d", name, got, want)
		}
	}
}

// TestSmallWriteAllocationFree pins the healthy small write and the address
// arithmetic under it.
func TestSmallWriteAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	a, _ := New(5, 4096, LeftAsymmetric)
	data := bytes.Repeat([]byte{7}, 4096)
	if err := a.WriteBlock(9, data); err != nil { // allocate the slabs
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"WriteBlock": func() {
			if err := a.WriteBlock(9, data); err != nil {
				t.Fatal(err)
			}
		},
		"Locate":     func() { _, _ = a.Locate(9) },
		"ParityDisk": func() { _ = a.ParityDisk(2) },
		"DataDisk":   func() { _ = a.DataDisk(2, 1) },
		"Disks":      func() { _ = a.Disks() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}
