package raid6

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/core"
	"code56/internal/parallel"
)

func randBlocks(r *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		r.Read(out[i])
	}
	return out
}

func TestWriteStripeRoundTrip(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 32)
	r := rand.New(rand.NewSource(1))
	data := randBlocks(r, a.DataPerStripe(), 32)
	if err := a.WriteStripe(0, data); err != nil {
		t.Fatal(err)
	}
	ok, err := a.VerifyStripe(0)
	if err != nil || !ok {
		t.Fatalf("stripe inconsistent after full-stripe write: %v %v", ok, err)
	}
	got, err := a.ReadStripe(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	// Per-block reads agree too.
	buf := make([]byte, 32)
	for L := int64(0); L < int64(a.DataPerStripe()); L++ {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[L]) {
			t.Fatalf("ReadBlock %d mismatch", L)
		}
	}
}

// TestWriteStripeIOProfile: a full-stripe write issues zero reads and
// exactly one write per cell — the I/O advantage over per-block RMW.
func TestWriteStripeIOProfile(t *testing.T) {
	code := core.MustNew(5)

	full := New(code, 32)
	r := rand.New(rand.NewSource(2))
	data := randBlocks(r, full.DataPerStripe(), 32)
	if err := full.WriteStripe(0, data); err != nil {
		t.Fatal(err)
	}
	fullStats := full.Disks().TotalStats()
	if fullStats.Reads != 0 {
		t.Errorf("full-stripe write issued %d reads, want 0", fullStats.Reads)
	}
	cells := int64(code.Geometry().Elements())
	if fullStats.Writes != cells {
		t.Errorf("full-stripe write issued %d writes, want %d", fullStats.Writes, cells)
	}

	rmw := New(code, 32)
	for L := int64(0); L < int64(rmw.DataPerStripe()); L++ {
		if err := rmw.WriteBlock(L, data[L]); err != nil {
			t.Fatal(err)
		}
	}
	rmwStats := rmw.Disks().TotalStats()
	if rmwStats.Total() <= fullStats.Total() {
		t.Errorf("RMW path %d I/Os not above full-stripe %d", rmwStats.Total(), fullStats.Total())
	}
	// The two paths must produce identical arrays.
	buf1 := make([]byte, 32)
	buf2 := make([]byte, 32)
	for L := int64(0); L < int64(rmw.DataPerStripe()); L++ {
		if err := full.ReadBlock(L, buf1); err != nil {
			t.Fatal(err)
		}
		if err := rmw.ReadBlock(L, buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf1, buf2) {
			t.Fatalf("block %d differs between write paths", L)
		}
	}
}

func TestWriteStripeValidation(t *testing.T) {
	a := New(core.MustNew(5), 32)
	if err := a.WriteStripe(0, make([][]byte, 3)); err == nil {
		t.Error("wrong block count accepted")
	}
	bad := randBlocks(rand.New(rand.NewSource(3)), a.DataPerStripe(), 32)
	bad[2] = bad[2][:5]
	if err := a.WriteStripe(0, bad); err == nil {
		t.Error("short block accepted")
	}
	a.Disks().Disk(1).Fail()
	good := randBlocks(rand.New(rand.NewSource(4)), a.DataPerStripe(), 32)
	if err := a.WriteStripe(0, good); !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("degraded full-stripe write: %v", err)
	}
}

func TestReadStripeDegraded(t *testing.T) {
	a := New(core.MustNew(5), 32)
	a.SetRotation(true)
	r := rand.New(rand.NewSource(5))
	data := randBlocks(r, a.DataPerStripe(), 32)
	if err := a.WriteStripe(2, data); err != nil {
		t.Fatal(err)
	}
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(4).Fail()
	got, err := a.ReadStripe(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("block %d mismatch under double failure", i)
		}
	}
}

// TestSecondFailureDuringRebuild: disk 1 fails and is being rebuilt when
// disk 3 fails; the rebuild of both must still succeed afterwards — the
// exact reliability scenario the paper's migration targets.
func TestSecondFailureDuringRebuild(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 32)
	r := rand.New(rand.NewSource(6))
	const stripes = 6
	want := make(map[int64][]byte)
	for L := int64(0); L < int64(a.DataPerStripe()*stripes); L++ {
		b := make([]byte, 32)
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	a.Disks().Disk(1).Fail()
	a.Disks().Disk(1).Replace()
	// Rebuild the first half of the stripes...
	if err := rebuild(a, stripes/2, 1); err != nil {
		t.Fatal(err)
	}
	// ...then a second disk dies mid-rebuild.
	a.Disks().Disk(3).Fail()
	// Finishing disk 1's rebuild now needs double reconstruction on the
	// unrebuilt half: erase both the remaining stale region and disk 3.
	a.Disks().Disk(3).Replace()
	if err := rebuild(a, stripes, 1, 3); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong after cascaded failures", L)
		}
	}
	for st := int64(0); st < stripes; st++ {
		ok, err := a.VerifyStripe(st)
		if err != nil || !ok {
			t.Fatalf("stripe %d inconsistent: %v %v", st, ok, err)
		}
	}
}

// TestRebuildParallelMatchesSerial: a rebuild on four workers and one on the
// serial one-worker path produce identical, consistent arrays (run with
// -race).
func TestRebuildParallelMatchesSerial(t *testing.T) {
	code := core.MustNew(7)
	mk := func() (*Array, map[int64][]byte) {
		a := New(code, 32)
		a.SetRotation(true)
		r := rand.New(rand.NewSource(9))
		const stripes = 12
		want := make(map[int64][]byte)
		for L := int64(0); L < int64(a.DataPerStripe()*stripes); L++ {
			b := make([]byte, 32)
			r.Read(b)
			want[L] = b
			if err := a.WriteBlock(L, b); err != nil {
				t.Fatal(err)
			}
		}
		return a, want
	}
	serial, wantS := mk()
	par, wantP := mk()
	for _, a := range []*Array{serial, par} {
		a.Disks().Disk(1).Fail()
		a.Disks().Disk(5).Fail()
		a.Disks().Disk(1).Replace()
		a.Disks().Disk(5).Replace()
	}
	ctx := context.Background()
	if err := serial.RebuildContext(ctx, 12, []int{1, 5}, parallel.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if err := par.RebuildContext(ctx, 12, []int{1, 5}, parallel.WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for L, w := range wantP {
		if err := par.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong after parallel rebuild", L)
		}
		if !bytes.Equal(w, wantS[L]) {
			t.Fatal("test setup mismatch")
		}
	}
	for st := int64(0); st < 12; st++ {
		ok, err := par.VerifyStripe(st)
		if err != nil || !ok {
			t.Fatalf("stripe %d inconsistent after parallel rebuild: %v %v", st, ok, err)
		}
	}
	// Degenerate paths.
	if err := par.RebuildContext(ctx, 12, []int{1}); err != nil { // auto workers
		t.Fatal(err)
	}
	if err := par.RebuildContext(ctx, 2, []int{1}, parallel.WithWorkers(8)); err != nil { // workers > stripes
		t.Fatal(err)
	}
	if err := par.RebuildContext(ctx, 12, []int{0, 1, 2}, parallel.WithWorkers(4)); !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("triple rebuild: %v", err)
	}
}
