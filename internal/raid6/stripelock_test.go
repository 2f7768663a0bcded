package raid6

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"code56/internal/core"
	"code56/internal/telemetry"
)

// The tests in this file are the raid6 half of ROADMAP item 1's list (see
// vdisk.Array.StripeLock): between a small write's Swap and its last Xor a
// stripe's data and parities are one delta apart, and a degraded write or a
// full-stripe write puts its blocks down one after another, so whatever reads
// a stripe to reconstruct or check it, or writes parities computed from a
// snapshot of it, must exclude the writers of that stripe. Each fails at the
// commit before the lock existed. Start-gated and bounded; run under -race too.

// stamp is a block that says who wrote it, and when.
func stamp(bs int, who, round, i int) []byte {
	return bytes.Repeat([]byte{byte(who), byte(round), byte(i), 0x5A}, bs/4)
}

// lockArray is a Code 5-6 array of four stamped stripes; the tests work on
// stripe 1, whose first block is base.
func lockArray(t *testing.T, bs int) (a *Array, base int64) {
	t.Helper()
	a = New(core.MustNew(5), bs)
	a.SetTelemetry(telemetry.NewRegistry(), nil)
	for L := 0; L < 4*a.DataPerStripe(); L++ {
		if err := a.WriteBlock(int64(L), stamp(bs, L, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return a, int64(a.DataPerStripe())
}

// blocksOff returns the first n blocks of stripe 1 after base whose cells lie
// on none of the given disks.
func blocksOff(a *Array, base int64, n int, disks ...int) []int64 {
	var out []int64
	for L := base + 1; len(out) < n; L++ {
		_, cell := a.Locate(L)
		on := false
		for _, d := range disks {
			on = on || cell.Col == d
		}
		if !on {
			out = append(out, L)
		}
	}
	return out
}

// TestStripeLockReconstructingReadsDuringWrites: a degraded read of a block
// nobody writes — one disk down, and two — returns that block every time while
// other blocks of its stripe are written, ReadStripe hands the same block back,
// and on a healthy array taking small writes VerifyStripe and a check scrub
// never see a mismatch.
func TestStripeLockReconstructingReadsDuringWrites(t *testing.T) {
	const bs, rounds = 1024, 10
	for _, tc := range []struct {
		name  string
		down  int // disks down: the read block's, then the one two along
		reads int // a round
		read  func(a *Array, base int64, want []byte) bool
	}{
		{"degraded read, one disk down", 1, 500, func(a *Array, base int64, want []byte) bool {
			got := make([]byte, bs)
			return a.ReadBlock(base, got) == nil && bytes.Equal(got, want)
		}},
		{"degraded read, two disks down", 2, 500, func(a *Array, base int64, want []byte) bool {
			got := make([]byte, bs)
			return a.ReadBlock(base, got) == nil && bytes.Equal(got, want)
		}},
		{"ReadStripe, one disk down", 1, 100, func(a *Array, base int64, want []byte) bool {
			blocks, err := a.ReadStripe(1)
			return err == nil && bytes.Equal(blocks[0], want)
		}},
		{"VerifyStripe", 0, 100, func(a *Array, base int64, want []byte) bool {
			ok, err := a.VerifyStripe(1)
			return ok && err == nil
		}},
		{"check scrub", 0, 100, func(a *Array, base int64, want []byte) bool {
			rep, err := scrub(a, 4, ScrubCheck)
			return err == nil && rep.Clean()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, base := lockArray(t, bs)
			_, cell := a.Locate(base)
			down := []int{cell.Col, (cell.Col + 2) % 5}[:tc.down]
			for _, d := range down {
				a.Disks().Disk(d).Fail()
			}
			targets := blocksOff(a, base, 3, down...)
			want := stamp(bs, int(base), 0, 0)
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				var done atomic.Bool
				start := make(chan struct{}) // reader and writer leave together
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; !done.Load(); i++ {
						if err := a.WriteBlock(targets[i%len(targets)], stamp(bs, 9, round, i)); err != nil {
							t.Errorf("writer: %v", err)
							return
						}
					}
				}()
				close(start)
				wrong := 0
				for i := 0; i < tc.reads; i++ {
					if !tc.read(a, base, want) {
						wrong++
					}
				}
				done.Store(true)
				wg.Wait()
				if wrong > 0 {
					t.Fatalf("round %d: %d of %d reads of a stripe taking only acknowledged writes came back wrong", round, wrong, tc.reads)
				}
			}
		})
	}
}

// TestStripeLockSnapshotWritesDuringSmallWrites: what writes parities, or lost
// blocks, computed from a snapshot of a stripe — a repair scrub, WriteStripe,
// a full-stripe WriteRange, degraded writes with a disk down, the rebuild of a
// replaced disk — runs beside writers of single blocks of the stripe. The
// repair scrub finds nothing to repair on an array that only took acknowledged
// writes, and once all have stopped every stripe verifies and every block
// reads its last acknowledged write: its own writer's, or the full-stripe
// writer's if that one got there later. Beside the rebuild the writers go for
// the replaced disk: a small write to a row whose parity it holds, a degraded
// write to a data block on it, a partial WriteRange over one more, all before
// the rebuild reaches them or after.
func TestStripeLockSnapshotWritesDuringSmallWrites(t *testing.T) {
	const bs, rounds, writes = 1024, 120, 10
	fullStripe := func(a *Array, round, i int) [][]byte {
		blocks := make([][]byte, a.DataPerStripe())
		for k := range blocks {
			blocks[k] = stamp(bs, 100+k, round, i)
		}
		return blocks
	}
	for _, tc := range []struct {
		name string
		// arm, if set, readies a round before anyone runs, and snapshot is the
		// snapshot writer's i-th step; disk is the one that holds block base,
		// which the single-block writers keep off. It returns the blocks of the
		// stripe it wrote, if any.
		arm      func(a *Array, disk int)
		snapshot func(a *Array, base int64, disk, round, i int) ([][]byte, error)
		down     bool // the round leaves a disk down
		replaced bool // the writers go for the disk arm replaced
	}{
		{"repair scrub", nil, func(a *Array, base int64, disk, round, i int) ([][]byte, error) {
			rep, err := scrub(a, 4, ScrubRepair)
			if err == nil && !rep.Clean() {
				err = fmt.Errorf("repair scrub of a healthy array found %+v", rep)
			}
			return nil, err
		}, false, false},
		{"WriteStripe", nil, func(a *Array, base int64, disk, round, i int) ([][]byte, error) {
			blocks := fullStripe(a, round, i)
			return blocks, a.WriteStripe(1, blocks)
		}, false, false},
		{"full-stripe WriteRange", nil, func(a *Array, base int64, disk, round, i int) ([][]byte, error) {
			blocks := fullStripe(a, round, i)
			return blocks, a.WriteRange(base, bytes.Join(blocks, nil))
		}, false, false},
		{"degraded writes, one disk down", func(a *Array, disk int) { a.Disks().Disk(disk).Fail() }, func(a *Array, base int64, disk, round, i int) ([][]byte, error) {
			blocks := make([][]byte, a.DataPerStripe())
			blocks[0] = stamp(bs, 100, round, i)
			return blocks, a.WriteBlock(base, blocks[0])
		}, true, false},
		{"rebuild of a replaced disk", func(a *Array, disk int) {
			a.Disks().Disk(disk).Fail()
			a.Disks().Disk(disk).Replace()
		}, func(a *Array, base int64, disk, round, i int) ([][]byte, error) {
			if i > 0 {
				return nil, nil // one pass a round: a second would put right what the first got wrong
			}
			return nil, rebuild(a, 4, disk)
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, base := lockArray(t, bs)
			_, cell := a.Locate(base)
			targets := blocksOff(a, base, 3, cell.Col)
			var ranged int64 // the first of two blocks a WriteRange writer takes, if any
			if tc.replaced {
				// Code 5-6 at p=5 with base's cell on disk 0: base+3 is the data cell
				// (1,0), base+9 lies in row 3, whose horizontal parity is on disk 0,
				// and the range base+5, base+6 ends on the data cell (2,0).
				targets, ranged = []int64{base + 1, base + 3, base + 9}, base+5
				for _, L := range []int64{base + 3, base + 6} {
					if _, c := a.Locate(L); c.Col != cell.Col {
						t.Fatalf("block %d lies on disk %d, not on the replaced disk %d", L, c.Col, cell.Col)
					}
				}
			}
			// Stripe 1 as last acknowledged: by the single-block writers, and by
			// the snapshot writer if it writes blocks. A block neither has
			// written holds its first stamp.
			last, full := make([][]byte, a.DataPerStripe()), make([][]byte, a.DataPerStripe())
			for round := 1; round <= rounds; round++ {
				if tc.arm != nil {
					tc.arm(a, cell.Col)
				}
				var wg sync.WaitGroup
				start := make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < writes; i++ {
						blocks, err := tc.snapshot(a, base, cell.Col, round, i)
						if err != nil {
							t.Errorf("snapshot writer: %v", err)
							return
						}
						if blocks != nil {
							full = blocks
						}
					}
				}()
				for g, L := range targets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < writes; i++ {
							blk := stamp(bs, g+1, round, i)
							if err := a.WriteBlock(L, blk); err != nil {
								t.Errorf("block %d's writer: %v", L, err)
								return
							}
							last[L-base] = blk
						}
					}()
				}
				if ranged != 0 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for i := 0; i < writes; i++ {
							two := [][]byte{stamp(bs, 50, round, i), stamp(bs, 51, round, i)}
							if err := a.WriteRange(ranged, bytes.Join(two, nil)); err != nil {
								t.Errorf("the range writer: %v", err)
								return
							}
							last[ranged-base], last[ranged+1-base] = two[0], two[1]
						}
					}()
				}
				close(start)
				wg.Wait()
				got := make([]byte, bs)
				for k := range last {
					if err := a.ReadBlock(base+int64(k), got); err != nil {
						t.Fatal(err)
					}
					want := [][]byte{last[k], full[k]}
					if last[k] == nil && full[k] == nil {
						want[0] = stamp(bs, int(base)+k, 0, 0)
					}
					if !bytes.Equal(got, want[0]) && !bytes.Equal(got, want[1]) {
						t.Fatalf("round %d: block %d of the stripe reads %v, a value that was not the last acknowledged write to it", round, k, got[:4])
					}
				}
				if tc.down {
					restore(t, a, 4, cell.Col)
				}
				for st := int64(0); st < 4; st++ {
					if ok, err := a.VerifyStripe(st); err != nil || !ok {
						t.Fatalf("round %d: stripe %d's parities do not match its data (ok=%v err=%v)", round, st, ok, err)
					}
				}
			}
		})
	}
}
