package migrate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"code56/internal/codes/hdp"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/vdisk/filestore"
	"code56/internal/xorblk"
)

// newFilledRAID5 builds a RAID-5 of m disks over the backend (nil = memory)
// holding `rows` rows of seeded random data, written through WriteBlock so
// the horizontal parities are in place.
func newFilledRAID5(t testing.TB, m, blockSize int, layout raid5.Layout, rows, seed int64, backend vdisk.Backend) *raid5.Array {
	t.Helper()
	disks, err := vdisk.NewArrayBackend(m, blockSize, backend)
	if err != nil {
		t.Fatal(err)
	}
	a, err := raid5.Wrap(disks, m, layout)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, blockSize)
	for L := int64(0); L < rows*int64(m-1); L++ {
		r.Read(b)
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// convertQuiet runs a migration with no foreground I/O to completion.
func convertQuiet(t *testing.T, a *raid5.Array, rows int64, reg *telemetry.Registry) *OnlineMigrator {
	t.Helper()
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		mig.SetTelemetry(reg, nil)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	return mig
}

// TestConversionTalliesMatchPlan: moving the conversion's I/O in column runs
// changes how many calls carry it, not how much there is. Per disk, the
// blocks read and written by an undisturbed online conversion — and its XOR
// count — equal the offline planner's for the same conversion, at three
// sizes and in both orientations.
func TestConversionTalliesMatchPlan(t *testing.T) {
	const stripes = 6
	for _, p := range []int{5, 7, 13} {
		for _, o := range []struct {
			orient core.Orientation
			layout raid5.Layout
		}{{core.Left, raid5.LeftAsymmetric}, {core.Right, raid5.RightAsymmetric}} {
			name := fmt.Sprintf("p=%d/%s", p, o.layout)
			code, err := core.NewOriented(p, o.orient)
			if err != nil {
				t.Fatal(err)
			}
			plan := mustPlan(t, Conversion{M: p - 1, SourceLayout: o.layout, Code: code, Approach: Direct})
			if stripes%plan.Period != 0 {
				t.Fatalf("%s: %d stripes is not a whole number of the plan's %d-stripe periods", name, stripes, plan.Period)
			}
			periods := int64(stripes / plan.Period)

			rows := int64(stripes * (p - 1))
			a := newFilledRAID5(t, p-1, 32, o.layout, rows, int64(p), nil)
			reg := telemetry.NewRegistry()
			a.SetTelemetry(reg, nil)
			a.Disks().ResetStats()
			mig := convertQuiet(t, a, rows, reg)

			for d := 0; d < p; d++ {
				var reads, writes int64
				for _, ph := range plan.PhaseIO {
					reads += int64(ph.Reads[d])
					writes += int64(ph.Writes[d])
				}
				if st := a.Disks().Disk(d).Stats(); st.Reads != reads*periods || st.Writes != writes*periods {
					t.Errorf("%s disk %d: conversion moved %d reads / %d writes, plan says %d / %d",
						name, d, st.Reads, st.Writes, reads*periods, writes*periods)
				}
			}
			if got, want := reg.Counter("migrate.conversion_xors").Value(), int64(plan.XORs)*periods; got != want {
				t.Errorf("%s: migrate.conversion_xors = %d, plan says %d", name, got, want)
			}
			if want := int64(stripes * (p - 1) * (p - 3)); int64(plan.XORs)*periods != want {
				t.Errorf("%s: plan XORs %d, paper's (p-1)(p-3) per stripe gives %d", name, int64(plan.XORs)*periods, want)
			}
			if got, want := mig.StripeConversionBytes(), int64((p-1)*(p-2)+(p-1))*32; got != want {
				t.Errorf("%s: StripeConversionBytes = %d, want %d", name, got, want)
			}
			r6, err := mig.Result()
			if err != nil {
				t.Fatal(err)
			}
			for st := int64(0); st < stripes; st++ {
				if ok, err := r6.VerifyStripe(st); err != nil || !ok {
					t.Fatalf("%s: stripe %d does not verify (ok=%v err=%v)", name, st, ok, err)
				}
			}
		}
	}
}

// convertPerBlock is the reference the column-run conversion is held to: the
// conversion as Algorithm 2 states it, one diagonal chain at a time and one
// block per disk call, the first cover read into the parity and the rest
// folded in.
func convertPerBlock(t *testing.T, a *raid5.Array, code *core.Code56, stripes int64) {
	t.Helper()
	p := code.P()
	newDisk, err := a.Disks().Attach()
	if err != nil {
		t.Fatal(err)
	}
	buf, parity := make([]byte, a.BlockSize()), make([]byte, a.BlockSize())
	for st := int64(0); st < stripes; st++ {
		base := st * int64(p-1)
		for _, ch := range code.Chains()[p-1:] {
			for j, c := range ch.Covers {
				dst := parity
				if j > 0 {
					dst = buf
				}
				if err := a.Disks().Disk(c.Col).Read(base+int64(c.Row), dst); err != nil {
					t.Fatal(err)
				}
				if j > 0 {
					xorblk.Xor(parity, buf)
				}
			}
			if err := newDisk.Write(base+int64(ch.Parity.Row), parity); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConversionImagesMatchPerBlockReference converts two identical arrays,
// one through the migrator and one chain by chain with single-block I/O, and
// requires every disk byte to match — over a prime number of stripes, in
// both orientations.
func TestConversionImagesMatchPerBlockReference(t *testing.T) {
	for _, c := range []struct {
		p       int
		orient  core.Orientation
		layout  raid5.Layout
		stripes int64
	}{
		{5, core.Left, raid5.LeftAsymmetric, 257},
		{7, core.Right, raid5.RightAsymmetric, 31},
	} {
		const block = 64
		rows := c.stripes * int64(c.p-1)
		code, err := core.NewOriented(c.p, c.orient)
		if err != nil {
			t.Fatal(err)
		}
		ranged := newFilledRAID5(t, c.p-1, block, c.layout, rows, 31, nil)
		single := newFilledRAID5(t, c.p-1, block, c.layout, rows, 31, nil)
		convertQuiet(t, ranged, rows, nil)
		convertPerBlock(t, single, code, c.stripes)

		br, bs := make([]byte, block), make([]byte, block)
		for d := 0; d < c.p; d++ {
			for addr := int64(0); addr < rows; addr++ {
				if err := ranged.Disks().Disk(d).Read(addr, br); err != nil {
					t.Fatal(err)
				}
				if err := single.Disks().Disk(d).Read(addr, bs); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(br, bs) {
					t.Fatalf("p=%d %s: disk %d block %d differs between the column-run conversion and the per-block reference", c.p, c.layout, d, addr)
				}
			}
		}
	}
}

// conversionFolds is the conversion's read schedule: the fold schedule of the
// plan that rebuilds column p-1, the diagonal-parity disk.
func conversionFolds(t *testing.T, code *core.Code56) []layout.ColumnFold {
	t.Helper()
	plan := layout.NewDecoder(code).ColumnPlan(layout.Columns{}.With(code.P() - 1))
	if plan == nil {
		t.Fatalf("p=%d: column p-1 has no plan", code.P())
	}
	return plan.Folds()
}

// TestConversionRunsInvariant: every run of the schedule feeds consecutive
// chains — a contiguous slice of the parity column — and is all first
// contributors or all later ones; together the runs cover every data cell
// once, each chain's first contributor ahead of its others; and there are
// 2(p-1)-2 of them, the fewest disk calls the layout allows (6 at p=5), each
// folded from where it lies. The other codes get runs of whatever length their
// geometry allows, held to the same rule: every surviving member of every
// chain a plan uses lands on that chain's accumulator exactly once, the first
// contributor first, and a column read through scratch is read once.
func TestConversionRunsInvariant(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		for _, orient := range []core.Orientation{core.Left, core.Right} {
			code, err := core.NewOriented(p, orient)
			if err != nil {
				t.Fatal(err)
			}
			folds := conversionFolds(t, code)
			runs := 0
			covered := map[layout.Coord]bool{}
			fed := make([]int, p-1) // contributors seen, per chain
			for _, cf := range folds {
				if cf.Reads != nil {
					t.Errorf("p=%d orient=%d: column %d goes through scratch, its cells have one taker each", p, orient, cf.Col)
				}
				runs += len(cf.Runs)
				for _, r := range cf.Runs {
					if r.N < 1 || r.Acc < 0 || r.Acc+r.N > p-1 {
						t.Fatalf("p=%d orient=%d: run %+v lies outside the parity column", p, orient, r)
					}
					for k := 0; k < r.N; k++ {
						cell := layout.Coord{Row: r.Row + k, Col: cf.Col}
						if covered[cell] {
							t.Errorf("p=%d orient=%d: cell %v is read twice", p, orient, cell)
						}
						covered[cell] = true
						if got := code.DiagonalChainOf(cell.Row, cell.Col); got != r.Acc+k {
							t.Errorf("p=%d orient=%d: run %+v block %d feeds chain %d, its cell lies on chain %d", p, orient, r, k, r.Acc+k, got)
						}
						if first := fed[r.Acc+k] == 0; first != r.First {
							t.Errorf("p=%d orient=%d: run %+v block %d: first contributor %v, run says %v", p, orient, r, k, first, r.First)
						}
						fed[r.Acc+k]++
					}
				}
			}
			if want := 2*(p-1) - 2; runs != want {
				t.Errorf("p=%d orient=%d: %d runs a stripe, want %d", p, orient, runs, want)
			}
			for i, ch := range code.Chains()[p-1:] {
				if fed[i] != len(ch.Covers) {
					t.Errorf("p=%d orient=%d: chain %d fed %d blocks, covers %d", p, orient, i, fed[i], len(ch.Covers))
				}
				for _, c := range ch.Covers {
					if !covered[c] {
						t.Errorf("p=%d orient=%d: cell %v of chain %d is never read", p, orient, c, i)
					}
				}
			}
		}
	}

	for _, code := range []layout.Code{rdp.MustNew(7), xcode.MustNew(7), hdp.MustNew(7)} {
		g := code.Geometry()
		dec := layout.NewDecoder(code)
		for a := 0; a < g.Cols; a++ {
			for b := a; b < g.Cols; b++ {
				cols := layout.Columns{}.With(a).With(b)
				plan := dec.ColumnPlan(cols)
				if plan == nil {
					t.Fatalf("%s columns %d,%d: no plan", code.Name(), a, b)
				}
				// What the schedule must hold: each step's surviving sources on
				// the accumulator of the cell it recovers.
				type term struct {
					cell layout.Coord
					acc  int
				}
				accOf := func(c layout.Coord) int {
					for k := 0; k < cols.Len(); k++ {
						if cols.At(k) == c.Col {
							return k*g.Rows + c.Row
						}
					}
					return -1
				}
				want := map[term]bool{}
				for _, st := range plan.Steps() {
					for _, src := range st.Sources {
						if accOf(src) < 0 {
							want[term{src, accOf(st.Missing)}] = true
						}
					}
				}
				fed := map[int]bool{}
				for _, cf := range plan.Folds() {
					inReads := map[int]int{} // row → reads holding it
					for _, rd := range cf.Reads {
						for k := 0; k < rd.N; k++ {
							inReads[rd.Row+k]++
						}
					}
					perRow := map[int]int{}
					for _, r := range cf.Runs {
						for k := 0; k < r.N; k++ {
							tm := term{layout.Coord{Row: r.Row + k, Col: cf.Col}, r.Acc + k}
							if !want[tm] {
								t.Fatalf("%s columns %d,%d: %v lands on accumulator %d twice, or has no business there", code.Name(), a, b, tm.cell, tm.acc)
							}
							delete(want, tm)
							if r.First == fed[tm.acc] {
								t.Fatalf("%s columns %d,%d: %v on accumulator %d: First=%v, accumulator already fed=%v", code.Name(), a, b, tm.cell, tm.acc, r.First, fed[tm.acc])
							}
							fed[tm.acc] = true
							perRow[tm.cell.Row]++
							if cf.Reads != nil && inReads[tm.cell.Row] != 1 {
								t.Fatalf("%s columns %d,%d: %v is read into scratch %d times, want once", code.Name(), a, b, tm.cell, inReads[tm.cell.Row])
							}
						}
					}
					for row, n := range perRow {
						if cf.Reads == nil && n != 1 {
							t.Fatalf("%s columns %d,%d: cell (%d,%d) is read from its disk %d times", code.Name(), a, b, row, cf.Col, n)
						}
					}
					if len(inReads) > len(perRow) {
						t.Fatalf("%s columns %d,%d: column %d reads %d cells and folds %d", code.Name(), a, b, cf.Col, len(inReads), len(perRow))
					}
				}
				if len(want) != 0 {
					t.Fatalf("%s columns %d,%d: %d surviving chain members are never folded", code.Name(), a, b, len(want))
				}
			}
		}
	}
}

// TestConversionHealsLatentMidRun: a latent sector in the middle of a column
// run fails the ranged call — the read of a first-contributor run, the
// read-fold of a later one — and with it the stripe's compiled schedule; the
// stripe is decoded whole instead (raid6.RepairColumnsHeld), and exactly that
// one block is healed, once, and every block folded, once.
func TestConversionHealsLatentMidRun(t *testing.T) {
	const rows = 8 // two stripes at p=5
	for _, c := range []struct {
		name      string
		disk, row int
		first     bool
	}{
		// At p=5 disk 0 keeps its horizontal parity in row 3 of each stripe, so
		// rows 0-2 are one run, read before any other: every block a first
		// contributor. Disk 2's is in row 1, and its rows 2-3 fold into chains
		// disks 0 and 1 have fed already.
		{"read run", 0, 1, true},
		{"folded run", 2, 3, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, want := newLoadedRAID5(t, 4, rows, 81)
			a.Disks().Disk(c.disk).InjectLatentError(int64(c.row))
			reg := telemetry.NewRegistry()
			a.SetTelemetry(reg, nil)
			a.Disks().ResetStats()
			mig := convertQuiet(t, a, rows, reg)

			found := false
			folds := conversionFolds(t, mig.Code())
			for _, r := range folds[c.disk].Runs {
				if folds[c.disk].Col == c.disk && r.Row <= c.row && c.row < r.Row+r.N {
					found = r.N > 1 && r.First == c.first
				}
			}
			if !found {
				t.Fatalf("disk %d row %d is not inside a multi-block run with first=%v: %+v", c.disk, c.row, c.first, folds)
			}
			if got := mig.Stats().FaultsRepaired; got != 1 {
				t.Errorf("FaultsRepaired = %d, want 1", got)
			}
			if got := reg.Counter("migrate.fault_repairs").Value(); got != 1 {
				t.Errorf("migrate.fault_repairs = %d, want 1", got)
			}
			if got := a.Disks().Disk(c.disk).Stats().Writes; got != 1 {
				t.Errorf("disk %d took %d writes, want the one heal", c.disk, got)
			}
			if got := reg.Counter("migrate.conversion_xors").Value(); got != 2*perStripeXORs(mig) {
				t.Errorf("migrate.conversion_xors = %d, want %d", got, 2*perStripeXORs(mig))
			}
			buf := make([]byte, 32)
			if err := a.Disks().Disk(c.disk).Read(int64(c.row), buf); err != nil {
				t.Fatalf("latent block not rewritten: %v", err)
			}
			// The parity is right only if the fallback folded each block of the
			// stripe exactly once, whatever the refused schedule had folded.
			verifyConverted(t, mig, want, rows/4, "latent-mid-run")
		})
	}
}

// TestConvertStripeAllocationFree is the runtime half of convertStripe's
// //c56:noalloc: one stripe's conversion rents its parity column from the pool
// and allocates nothing, at either benchmark geometry; nor does the bit it
// sets, or a write's look at it.
func TestConvertStripeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, g := range []struct{ p, blockSize int }{{5, 4096}, {13, 16384}} {
		mig := newStripeConverter(t, g.p, g.blockSize)
		if n := testing.AllocsPerRun(50, func() {
			if err := mig.convertStripe(1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("p=%d: convertStripe allocates %.1f times per stripe, want 0", g.p, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			mig.pass.Mark(2)
			if !mig.pass.Done(2) || mig.pass.Done(3) {
				t.Fatal("stripe 2's bit is not the one set")
			}
		}); n != 0 {
			t.Errorf("p=%d: Mark and Done allocate %.1f times, want 0", g.p, n)
		}
	}
}

// newStripeConverter returns a migrator over four filled stripes of a
// memory-backed RAID-5 with the diagonal-parity disk attached and no worker
// running, so a test or benchmark drives convertStripe itself.
func newStripeConverter(t testing.TB, p, blockSize int) *OnlineMigrator {
	t.Helper()
	rows := int64(4 * (p - 1))
	a := newFilledRAID5(t, p-1, blockSize, raid5.LeftAsymmetric, rows, int64(p), nil)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	mig.SetTelemetry(telemetry.NewRegistry(), nil)
	return mig
}

// BenchmarkConvertStripe times one stripe's conversion on memory-backed disks
// at the repo benchmark's two geometries (convert_mem and array_ops), in bytes
// of data converted.
func BenchmarkConvertStripe(b *testing.B) {
	for _, g := range []struct {
		name         string
		p, blockSize int
	}{{"p5_4k", 5, 4096}, {"p13_16k", 13, 16384}} {
		b.Run(g.name, func(b *testing.B) {
			mig := newStripeConverter(b, g.p, g.blockSize)
			b.SetBytes(int64((g.p - 1) * (g.p - 2) * g.blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mig.convertStripe(int64(i % 4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMigratorWrite prices a foreground write through the migrator, beside
// raid6's BenchmarkWriteBlockRMW: random blocks of a p=5 array of 4096 stripes
// (201 MB of data, so the blocks a write touches come from memory), before the
// migration has started (the RAID-5 small write) and after it has finished (plus
// the diagonal parity), from one closed-loop client and from two — ROADMAP
// item 1's "two clients slower than one". ns/op is wall time over all writes.
func BenchmarkMigratorWrite(b *testing.B) {
	const stripes, bs = 4096, 4096
	for _, state := range []string{"unconverted", "converted"} {
		rows := int64(stripes * 4)
		a := newFilledRAID5(b, 4, bs, raid5.LeftAsymmetric, rows, 5, nil)
		mig, err := NewOnlineMigrator(a, rows)
		if err != nil {
			b.Fatal(err)
		}
		mig.SetTelemetry(telemetry.NewRegistry(), nil)
		if state == "converted" {
			if err := mig.Start(); err != nil {
				b.Fatal(err)
			}
			if err := mig.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		for _, clients := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/clients=%d", state, clients), func(b *testing.B) {
				b.SetBytes(bs)
				var wg sync.WaitGroup
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						r := rand.New(rand.NewSource(int64(c)))
						data := make([]byte, bs)
						r.Read(data)
						for i := c; i < b.N; i += clients {
							if err := mig.Write(r.Int63n(rows*3), data); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
		if err := a.Disks().Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteRecomputesUnreadableDiagonalParity is the regression test for the
// TestRunOnlineWithFaults "flake": a write below the watermark whose
// diagonal-parity read on the added disk hit a latent (or persistent
// transient) error returned that error after the data and horizontal parity
// were already on disk, leaving the stripe inconsistent. The stripe is now
// written again from a decode of it, every parity whole, which also clears
// the sector; and with the added disk down a write is served degraded.
func TestWriteRecomputesUnreadableDiagonalParity(t *testing.T) {
	const rows = 8
	a, want := newLoadedRAID5(t, 4, rows, 82)
	mig := convertQuiet(t, a, rows, nil)

	const logical = 13 // stripe 1
	row, disk := a.Locate(logical)
	stripeRows := int64(mig.Code().P() - 1)
	chain := mig.Code().DiagonalChainOf(int(row%stripeRows), disk)
	parityAddr := (row/stripeRows)*stripeRows + int64(chain)
	newDisk := a.Disks().Disk(4)
	newDisk.InjectLatentError(parityAddr)
	// A second bad sector on the chain, in another row: the recompute reads
	// it through the RAID-5 redundancy.
	for _, c := range mig.Code().Chains()[4+chain].Covers {
		if r := (row/stripeRows)*stripeRows + int64(c.Row); r != row {
			a.Disks().Disk(c.Col).InjectLatentError(r)
			break
		}
	}

	data := bytes.Repeat([]byte{0xC5}, 32)
	if err := mig.Write(logical, data); err != nil {
		t.Fatalf("write over an unreadable diagonal parity: %v", err)
	}
	want[logical] = data
	if err := newDisk.Read(parityAddr, make([]byte, 32)); err != nil {
		t.Errorf("diagonal parity block still unreadable after the write: %v", err)
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	// The covered cell's bad sector is still there (a write does not heal its
	// neighbours); scrub it so VerifyStripe can read the whole stripe.
	if _, err := r6.ScrubContextMode(context.Background(), rows/stripeRows, raid6.ScrubRepair, parallel.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	verifyConverted(t, mig, want, rows/stripeRows, "diagonal-recompute")

	// With the added disk fail-stopped the write is a degraded one, like a
	// write with any other column lost.
	newDisk.Fail()
	data = bytes.Repeat([]byte{0xD7}, 32)
	if err := mig.Write(logical, data); err != nil {
		t.Fatalf("write with the added disk down: %v", err)
	}
	got := make([]byte, 32)
	if err := mig.Read(logical, got); err != nil || !bytes.Equal(got, data) {
		t.Errorf("read back with the added disk down: %x (%v)", got[:4], err)
	}
}

// TestForegroundWriteIOCount: a write to a converted stripe costs three reads
// and three writes — data, horizontal parity, diagonal parity — the old data
// being read once, by the RAID-5 read-modify-write that hands it on; a write
// to a stripe not yet converted is the plain RAID-5 two and two.
func TestForegroundWriteIOCount(t *testing.T) {
	const rows = 8
	a, _ := newLoadedRAID5(t, 4, rows, 83)
	mig, err := NewOnlineMigrator(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5C}, 32)
	a.Disks().ResetStats()
	if err := mig.Write(5, data); err != nil {
		t.Fatal(err)
	}
	if st := a.Disks().TotalStats(); st.Reads != 2 || st.Writes != 2 {
		t.Errorf("write before conversion: %d reads / %d writes, want 2 / 2", st.Reads, st.Writes)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	a.Disks().ResetStats()
	if err := mig.Write(5, bytes.Repeat([]byte{0x6D}, 32)); err != nil {
		t.Fatal(err)
	}
	if st := a.Disks().TotalStats(); st.Reads != 3 || st.Writes != 3 {
		t.Errorf("write after conversion: %d reads / %d writes, want 3 / 3", st.Reads, st.Writes)
	}
	if st := mig.Stats(); st.DiagonalUpdates != 1 {
		t.Errorf("DiagonalUpdates = %d, want 1", st.DiagonalUpdates)
	}
}

// TestDowngradeClosesDetachedDisk: on a file backend the detached
// diagonal-parity disk's image must not stay open — Downgrade closes its
// store, so the store refuses further I/O and the image can be removed.
func TestDowngradeClosesDetachedDisk(t *testing.T) {
	const rows = 8
	dir := t.TempDir()
	fb, err := filestore.NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := newFilledRAID5(t, 4, 32, raid5.LeftAsymmetric, rows, 84, fb)
	defer a.Disks().Close()
	mig := convertQuiet(t, a, rows, nil)
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	detached := r6.Disks().Disk(4)
	if err := Downgrade(r6); err != nil {
		t.Fatal(err)
	}
	if got := a.Disks().Len(); got != 4 {
		t.Fatalf("%d disks after downgrade, want 4", got)
	}
	if _, err := detached.Store().ReadAt(make([]byte, 32), 0); !errors.Is(err, os.ErrClosed) {
		t.Errorf("detached disk's store read = %v, want os.ErrClosed", err)
	}
	if err := os.Remove(filepath.Join(dir, filestore.DiskFileName(4))); err != nil {
		t.Errorf("removing the detached image: %v", err)
	}
	// The RAID-5 that remains is untouched and serves on.
	if ok, err := a.VerifyStripe(0); err != nil || !ok {
		t.Errorf("remaining RAID-5 stripe 0: ok=%v err=%v", ok, err)
	}

	// A close that fails is reported: an image already closed cannot be
	// closed again.
	mig = convertQuiet(t, a, rows, nil)
	if r6, err = mig.Result(); err != nil {
		t.Fatal(err)
	}
	if err := r6.Disks().Disk(4).Close(); err != nil {
		t.Fatal(err)
	}
	if err := Downgrade(r6); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Downgrade over an already-closed image = %v, want os.ErrClosed", err)
	}
}
