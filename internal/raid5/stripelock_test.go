package raid5

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"code56/internal/parallel"
	"code56/internal/telemetry"
)

// The tests in this file are the raid5 half of ROADMAP item 1's list: a small
// write is a Swap and then an Xor, and between the two the row's data and
// parity are one delta apart, so whatever reads a row's blocks to reconstruct
// one, or to compute a parity it then writes whole, must not run in between
// (vdisk.Array.StripeLock). Each fails at the commit before the lock existed.
// They are start-gated and bounded; run them under -race too.

// stamp is a block that says who wrote it, and when.
func stamp(bs int, who, round, i int) []byte {
	return bytes.Repeat([]byte{byte(who), byte(round), byte(i), 0xA5}, bs/4)
}

// raceUntil starts one goroutine a function of background, lets them and fn
// leave together, and stops them once fn returns; each background function is
// called again and again with a running count.
func raceUntil(fn func(), background ...func(i int)) {
	var wg sync.WaitGroup
	var done atomic.Bool
	start := make(chan struct{}) // they leave together, or the first is done before the last is scheduled
	for _, bg := range background {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; !done.Load(); i++ {
				bg(i)
			}
		}()
	}
	close(start)
	fn()
	done.Store(true)
	wg.Wait()
}

// TestStripeLockDegradedReadDuringSmallWrites: a degraded read of a block
// nobody writes returns that block every time while another block of its row
// takes small writes, whether the block's disk is down or its sector bad. The
// stripe verifies all the while, too.
func TestStripeLockDegradedReadDuringSmallWrites(t *testing.T) {
	const bs, rounds, reads = 1024, 10, 400
	for _, damage := range []string{"disk down", "latent sector", "none: VerifyStripe"} {
		t.Run(damage, func(t *testing.T) {
			a, _ := New(5, bs, LeftAsymmetric)
			a.SetTelemetry(telemetry.NewRegistry(), nil)
			for L := 0; L < 4; L++ { // row 0
				if err := a.WriteBlock(int64(L), stamp(bs, L+1, 0, 0)); err != nil {
					t.Fatal(err)
				}
			}
			want, got := stamp(bs, 1, 0, 0), make([]byte, bs)
			row, disk := a.Locate(0)
			switch damage {
			case "disk down":
				a.Disks().Disk(disk).Fail()
			case "latent sector":
				a.Disks().Disk(disk).InjectLatentError(row) // a read does not heal it
			}
			for round := 0; round < rounds; round++ {
				wrong := 0
				raceUntil(func() {
					for i := 0; i < reads; i++ {
						if damage == "none: VerifyStripe" {
							if ok, err := a.VerifyStripe(0); err != nil || !ok {
								wrong++
							}
						} else if err := a.ReadBlock(0, got); err != nil || !bytes.Equal(got, want) {
							wrong++
						}
					}
				}, func(i int) {
					if err := a.WriteBlock(1, stamp(bs, 2, round, i)); err != nil {
						t.Errorf("writer: %v", err)
					}
				})
				if wrong > 0 {
					t.Fatalf("round %d: %d of %d reads of a row taking only acknowledged small writes came back wrong", round, wrong, reads)
				}
			}
		})
	}
}

// TestStripeLockSnapshotWritesDuringSmallWrites: writes that compute the row's
// parity from a snapshot of its blocks — a write to a block whose disk is
// down, the redo of a small write that met a bad parity sector, the rebuild of
// a replaced disk, EncodeStripe — run beside small writes to other blocks of
// the row, and once all have stopped every block reads its last acknowledged
// write, the one on the dead disk included, and the stripe verifies where it
// can be read.
func TestStripeLockSnapshotWritesDuringSmallWrites(t *testing.T) {
	const bs, rounds, writes = 1024, 100, 20
	for _, tc := range []struct {
		name string
		// snapshot is the snapshot writer's i-th step, and the block it wrote.
		snapshot func(a *Array, row int64, disk, round, i int) ([]byte, error)
		dead     bool // the array is left with a disk down: no VerifyStripe
	}{
		{"reconstruct-write, disk down",
			func(a *Array, row int64, disk, round, i int) ([]byte, error) {
				a.Disks().Disk(disk).Fail()
				blk := stamp(bs, 1, round, i)
				return blk, a.WriteBlock(0, blk)
			}, true},
		{"small write upgraded over a latent parity sector",
			func(a *Array, row int64, disk, round, i int) ([]byte, error) {
				a.Disks().Disk(a.ParityDisk(row)).InjectLatentError(row) // whoever folds into it next upgrades
				blk := stamp(bs, 1, round, i)
				return blk, a.WriteBlock(0, blk)
			}, false},
		{"rebuild of a replaced disk",
			func(a *Array, row int64, disk, round, i int) ([]byte, error) {
				a.Disks().Disk(disk).Fail()
				a.Disks().Disk(disk).Replace()
				return nil, a.RebuildContext(context.Background(), 1, []int{disk})
			}, false},
		{"EncodeStripe",
			func(a *Array, row int64, disk, round, i int) ([]byte, error) { return nil, a.EncodeStripe(0) },
			false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := New(5, bs, LeftAsymmetric)
			a.SetTelemetry(telemetry.NewRegistry(), nil)
			last := make([][]byte, 4) // row 0's blocks, as last acknowledged
			for L := range last {
				last[L] = stamp(bs, L+1, 0, 0)
				if err := a.WriteBlock(int64(L), last[L]); err != nil {
					t.Fatal(err)
				}
			}
			row, disk := a.Locate(0) // the snapshot writer's block; the small writers keep off its disk
			for round := 1; round <= rounds; round++ {
				var wg sync.WaitGroup
				start := make(chan struct{})
				run := func(L int, step func(i int) ([]byte, error)) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < writes; i++ {
							blk, err := step(i)
							if err != nil {
								t.Errorf("block %d's writer: %v", L, err)
								return
							}
							if blk != nil {
								last[L] = blk
							}
						}
					}()
				}
				run(0, func(i int) ([]byte, error) { return tc.snapshot(a, row, disk, round, i) })
				for L := 1; L <= 2; L++ {
					run(L, func(i int) ([]byte, error) {
						blk := stamp(bs, L+1, round, i)
						return blk, a.WriteBlock(int64(L), blk)
					})
				}
				close(start)
				wg.Wait()
				got := make([]byte, bs)
				for L, want := range last {
					if err := a.ReadBlock(int64(L), got); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("round %d: block %d reads %v (err %v), its last acknowledged write was %v", round, L, got[:4], err, want[:4])
					}
				}
				if !tc.dead {
					if ok, err := a.VerifyStripe(0); err != nil || !ok {
						t.Fatalf("round %d: the row's parity does not match its data (ok=%v err=%v)", round, ok, err)
					}
				}
			}
		})
	}
}

// TestStripeLockRebuildUnderWriters: while a rebuild on two workers restores a
// replaced disk, writers go for it — small writes to blocks it holds, which
// are recomputed under the exclusive hold since its blocks are stale, and
// small writes to a row whose parity it holds, whose fold into the stale
// parity is dropped — beside a writer that keeps off it. Once all have stopped
// every block reads its last acknowledged write and every stripe verifies.
// The blocks are large enough that a stripe fills a worker's claim, so the two
// stripes are rebuilt by two workers at once.
func TestStripeLockRebuildUnderWriters(t *testing.T) {
	const bs, m, rows, rounds, writes = 64 << 10, 5, 10, 100, 10
	a, _ := New(m, bs, LeftAsymmetric)
	a.SetTelemetry(telemetry.NewRegistry(), nil)
	blocks := int64(rows * (m - 1))
	last := make([][]byte, blocks)
	for L := range last {
		last[L] = stamp(bs, L, 0, 0)
		if err := a.WriteBlock(int64(L), last[L]); err != nil {
			t.Fatal(err)
		}
	}
	const disk = 0
	// Each writer owns its blocks: on the replaced disk, in rows whose parity
	// it holds, and elsewhere.
	var on, parity, off []int64
	for L := int64(0); L < blocks; L++ {
		row, d := a.Locate(L)
		switch {
		case d == disk:
			on = append(on, L)
		case a.ParityDisk(row) == disk:
			parity = append(parity, L)
		default:
			off = append(off, L)
		}
	}
	for round := 1; round <= rounds; round++ {
		a.Disks().Disk(disk).Fail()
		a.Disks().Disk(disk).Replace()
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := a.RebuildContext(context.Background(), rows/m, []int{disk}, parallel.WithWorkers(2)); err != nil {
				t.Errorf("rebuild: %v", err)
			}
		}()
		for g, mine := range [][]int64{on, parity, off} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < writes; i++ {
					L := mine[(round+i)%len(mine)]
					blk := stamp(bs, 100+g, round, i)
					if err := a.WriteBlock(L, blk); err != nil {
						t.Errorf("writer %d, block %d: %v", g, L, err)
						return
					}
					last[L] = blk
				}
			}()
		}
		close(start)
		wg.Wait()
		got := make([]byte, bs)
		for L, want := range last {
			if err := a.ReadBlock(int64(L), got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d: block %d reads %v (err %v), its last acknowledged write was %v", round, L, got[:4], err, want[:4])
			}
		}
		for st := int64(0); st < rows/m; st++ {
			if ok, err := a.VerifyStripe(st); err != nil || !ok {
				t.Fatalf("round %d: stripe %d's parity does not match its data (ok=%v err=%v)", round, st, ok, err)
			}
		}
	}
}
