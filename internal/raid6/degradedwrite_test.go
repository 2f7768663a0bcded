package raid6

import (
	"bytes"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
)

// TestDegradedWriteReadsOnlyItsChains, Code 5-6 at p=5, one data disk down: a
// write to a block of that disk recomputes the block's two parities from their
// chains' other members — 2 + 2 reads, the two parities written — instead of
// loading the stripe's 16 surviving blocks; a write to a block of another disk
// whose parities are up is the small write, 3 reads and 3 writes. Every block
// reads back, and after a rebuild the stripe verifies.
func TestDegradedWriteReadsOnlyItsChains(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 16)
	want := fillRandom(t, a, 1, rand.New(rand.NewSource(41)))
	_, lost := a.Locate(0)
	a.Disks().Disk(lost.Col).Fail()
	write := func(L int64, reads, writes int64, what string) {
		t.Helper()
		want[L] = bytes.Repeat([]byte{byte(L + 100)}, 16)
		a.Disks().ResetStats()
		if err := a.WriteBlock(L, want[L]); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if st := a.Disks().TotalStats(); st.Reads != reads || st.Writes != writes {
			t.Errorf("%s: %d reads / %d writes, want %d / %d", what, st.Reads, st.Writes, reads, writes)
		}
	}
	write(0, 4, 2, "a block of the failed disk")
	for L := int64(1); L < int64(a.DataPerStripe()); L++ {
		_, cell := a.Locate(L)
		clear := cell.Col != lost.Col
		for _, ci := range a.cascade[a.geom.Index(cell)] {
			clear = clear && a.chains[ci].Parity.Col != lost.Col
		}
		if clear {
			write(L, 3, 3, "a block whose disk and parities are up")
			break
		}
	}
	checkAll(t, a, want, "degraded writes")
	a.Disks().Disk(lost.Col).Replace()
	if err := rebuild(a, 1, lost.Col); err != nil {
		t.Fatal(err)
	}
	checkAll(t, a, want, "after rebuild")
	if ok, err := a.VerifyStripe(0); err != nil || !ok {
		t.Fatalf("stripe after rebuild: ok=%v err=%v", ok, err)
	}
}

// TestWriteRangeThroughMidRangeFailure: a disk that fail-stops in the middle of
// a WriteRange over 8 stripes — partial ones at both ends, full ones between —
// does not fail the range: the full stripes skip its column, the partial ones
// write around it, and every block reads back degraded.
func TestWriteRangeThroughMidRangeFailure(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 16)
	a.SetTelemetry(telemetry.NewRegistry(), nil)
	poolBalanced(t)
	const stripes = 8
	r := rand.New(rand.NewSource(42))
	for st := int64(0); st < stripes; st++ {
		if err := a.WriteStripe(st, randBlocks(r, a.DataPerStripe(), 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Each full stripe is one 4-block column write on the disk: the 14th I/O
	// falls in the range's third stripe.
	if err := a.Disks().Disk(1).SetFaults(vdisk.FaultConfig{Seed: 1, FailAtIO: 14}); err != nil {
		t.Fatal(err)
	}
	first, n := int64(3), int64(stripes*a.DataPerStripe()-6)
	data := make([]byte, n*16)
	r.Read(data)
	if err := a.WriteRange(first, data); err != nil {
		t.Fatalf("WriteRange with a disk failing mid-range: %v", err)
	}
	if !a.Disks().Disk(1).Failed() {
		t.Fatal("the scheduled failure did not fire; the test covers nothing")
	}
	buf := make([]byte, 16)
	for i := int64(0); i < n; i++ {
		if err := a.ReadBlock(first+i, buf); err != nil || !bytes.Equal(buf, data[i*16:(i+1)*16]) {
			t.Fatalf("block %d reads %v (err %v)", first+i, buf, err)
		}
	}
}

// TestWriteRangeCountsItsFolds: a partial-stripe range counts its XORs and
// parity updates as the single-block write does: an XOR per delta, per
// aggregate term and per fold, and a parity update per fold.
func TestWriteRangeCountsItsFolds(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(core.MustNew(5), 16)
	a.SetTelemetry(reg, nil)
	fillRandom(t, a, 1, rand.New(rand.NewSource(43)))
	xors, updates := reg.Counter("raid6.xors").Value(), reg.Counter("raid6.parity_updates").Value()
	a.Disks().ResetStats()
	if err := a.WriteRange(0, make([]byte, 4*16)); err != nil {
		t.Fatal(err)
	}
	folds := a.Disks().TotalStats().Writes - 4 // every write but the four swaps is one fold
	if got := reg.Counter("raid6.parity_updates").Value() - updates; got != folds {
		t.Errorf("raid6.parity_updates moved by %d, want %d: one per parity folded", got, folds)
	}
	if got := reg.Counter("raid6.xors").Value() - xors; got < 4+folds {
		t.Errorf("raid6.xors moved by %d, want at least %d: the 4 deltas and one a fold", got, 4+folds)
	}
}
