package vdisk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"code56/internal/telemetry"
)

// rangedPair returns two identical disks on private registries: one is
// driven a block at a time, the other a run at a time.
func rangedPair(blockSize int) (single, ranged *Disk, sreg, rreg *telemetry.Registry) {
	sreg, rreg = telemetry.NewRegistry(), telemetry.NewRegistry()
	single, ranged = NewDisk(0, blockSize), NewDisk(0, blockSize)
	single.SetTelemetry(sreg, nil)
	ranged.SetTelemetry(rreg, nil)
	return single, ranged, sreg, rreg
}

// sameAccounting requires everything that counts block I/Os to agree between
// the two disks: Stats, the vdisk.* counters, the io_rate total and the
// io_bytes histogram. (The per-disk latency histograms count store calls and
// are compared by the caller.)
func sameAccounting(t *testing.T, single, ranged *Disk, sreg, rreg *telemetry.Registry) {
	t.Helper()
	if s, r := single.Stats(), ranged.Stats(); s != r {
		t.Errorf("Stats: single %+v, ranged %+v", s, r)
	}
	ss, rs := sreg.Snapshot(), rreg.Snapshot()
	for name, v := range ss.Counters {
		if rs.Counters[name] != v {
			t.Errorf("counter %s: single %d, ranged %d", name, v, rs.Counters[name])
		}
	}
	for name, v := range ss.Gauges {
		if rs.Gauges[name] != v {
			t.Errorf("gauge %s: single %d, ranged %d", name, v, rs.Gauges[name])
		}
	}
	if s, r := ss.Rates["vdisk.io_rate"].Total, rs.Rates["vdisk.io_rate"].Total; s != r {
		t.Errorf("vdisk.io_rate total: single %d, ranged %d", s, r)
	}
	sh, rh := ss.Histograms["vdisk.io_bytes"], rs.Histograms["vdisk.io_bytes"]
	if sh.Count != rh.Count || sh.Sum != rh.Sum || fmt.Sprint(sh.Counts) != fmt.Sprint(rh.Counts) {
		t.Errorf("vdisk.io_bytes: single %+v, ranged %+v", sh, rh)
	}
}

// TestRangedMatchesSingle: a run of n blocks moved with one call leaves the
// same bytes and the same block-I/O accounting as n one-block calls; only
// the per-disk latency histograms tell them apart, one observation per call.
func TestRangedMatchesSingle(t *testing.T) {
	const bs, first, n = 64, 3, 5
	single, ranged, sreg, rreg := rangedPair(bs)
	data := make([]byte, n*bs)
	rand.New(rand.NewSource(1)).Read(data)

	for i := 0; i < n; i++ {
		if err := single.Write(first+int64(i), data[i*bs:(i+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ranged.WriteBlocks(first, data); err != nil {
		t.Fatal(err)
	}
	gotS, gotR := make([]byte, n*bs), make([]byte, n*bs)
	for i := 0; i < n; i++ {
		if err := single.Read(first+int64(i), gotS[i*bs:(i+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ranged.ReadBlocks(first, gotR); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotS, data) || !bytes.Equal(gotR, data) {
		t.Fatal("read-back differs from what was written")
	}
	// Each path reads the other's media the same way.
	if err := single.ReadBlocks(first, gotS); err != nil || !bytes.Equal(gotS, data) {
		t.Fatalf("ranged read of single-written blocks: err %v", err)
	}
	for i := 0; i < n; i++ {
		if err := ranged.Read(first+int64(i), gotR[:bs]); err != nil || !bytes.Equal(gotR[:bs], data[i*bs:(i+1)*bs]) {
			t.Fatalf("single read of ranged-written block %d: err %v", i, err)
		}
	}
	sameAccounting(t, single, ranged, sreg, rreg)

	// One latency observation per store call: n one-block writes against one
	// ranged write; n one-block reads plus one ranged read on either disk.
	for _, c := range []struct {
		hist           string
		single, ranged int64
	}{
		{"vdisk.disk.0.write_latency_us", n, 1},
		{"vdisk.disk.0.read_latency_us", n + 1, n + 1},
	} {
		s, r := sreg.Snapshot().Histograms[c.hist].Count, rreg.Snapshot().Histograms[c.hist].Count
		if s != c.single || r != c.ranged {
			t.Errorf("%s: %d observations on the single-block disk, %d on the ranged one; want %d and %d", c.hist, s, r, c.single, c.ranged)
		}
	}
	if single.BlocksInUse() != n || ranged.BlocksInUse() != n {
		t.Errorf("blocks in use: single %d, ranged %d, want %d", single.BlocksInUse(), ranged.BlocksInUse(), n)
	}
}

// TestRangedInjectorMatchesSingle: under a seeded fault scenario a ranged
// call draws from the injector exactly as the one-block calls it replaces do,
// block by block in address order. When every block passes, the accounting
// matches; when one fails, the run fails with that block's error, and the
// injector is left where the one-block sequence stopped — so the I/O that
// follows sees the same faults on both disks.
func TestRangedInjectorMatchesSingle(t *testing.T) {
	const bs, n, blocks = 16, 6, 48
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		for _, write := range []bool{false, true} {
			single, ranged, sreg, rreg := rangedPair(bs)
			fill := make([]byte, blocks*bs)
			rand.New(rand.NewSource(seed)).Read(fill)
			for _, d := range []*Disk{single, ranged} {
				if err := d.WriteBlocks(0, fill); err != nil {
					t.Fatal(err)
				}
				cfg := FaultConfig{Seed: seed, ReadTransientProb: 0.03, WriteTransientProb: 0.03, LatentProb: 0.03}
				if seed%8 == 0 {
					cfg.FailAtIO = 4 // a scheduled fail-stop in the middle of the first run
				}
				if err := d.SetFaults(cfg); err != nil {
					t.Fatal(err)
				}
				d.ResetStats()
			}
			buf := make([]byte, n*bs)
			var want Stats // what the ranged disk must count: whole runs or nothing
			for first := int64(0); first+n <= blocks; first += n {
				var serr error
				for i := int64(0); i < n && serr == nil; i++ {
					if write {
						serr = single.Write(first+i, fill[(first+i)*bs:(first+i+1)*bs])
					} else {
						serr = single.Read(first+i, buf[:bs])
					}
				}
				var rerr error
				if write {
					rerr = ranged.WriteBlocks(first, fill[first*bs:(first+n)*bs])
				} else {
					rerr = ranged.ReadBlocks(first, buf)
				}
				if fmt.Sprint(serr) != fmt.Sprint(rerr) {
					t.Fatalf("seed %d write=%v run at %d: single path stopped with %v, ranged call returned %v", seed, write, first, serr, rerr)
				}
				switch {
				case rerr == nil && write:
					want.Writes += n
					outcomes["ok"]++
				case rerr == nil:
					want.Reads += n
					outcomes["ok"]++
				case errors.Is(rerr, ErrTransient):
					outcomes["transient"]++
				case errors.Is(rerr, ErrLatent):
					outcomes["latent"]++
				case errors.Is(rerr, ErrFailed):
					outcomes["failed"]++
				}
			}
			if got := ranged.Stats(); got != want {
				t.Errorf("seed %d write=%v: ranged Stats %+v, want %+v (a failed run counts nothing)", seed, write, got, want)
			}
			for _, name := range []string{"vdisk.transient_errors", "vdisk.latent_errors", "vdisk.failures", "vdisk.read_errors", "vdisk.write_errors"} {
				if s, r := sreg.Counter(name).Value(), rreg.Counter(name).Value(); s != r {
					t.Errorf("seed %d write=%v: %s single %d, ranged %d", seed, write, name, s, r)
				}
			}
			if single.faults.ios != ranged.faults.ios || single.faults.rng.Int63() != ranged.faults.rng.Int63() {
				t.Errorf("seed %d write=%v: injectors ended in different states", seed, write)
			}
			if fmt.Sprint(single.latent) != fmt.Sprint(ranged.latent) {
				t.Errorf("seed %d write=%v: latent sets differ: %v vs %v", seed, write, single.latent, ranged.latent)
			}
		}
	}
	for _, kind := range []string{"ok", "transient", "latent", "failed"} {
		if outcomes[kind] == 0 {
			t.Errorf("no run ended %q: the scenario does not cover it (%v)", kind, outcomes)
		}
	}
}

// TestRangedLatentMidRun: a latent sector in the middle of a run fails the
// whole read with that block's error and counts nothing; a ranged write over
// the run clears it, like a one-block write does.
func TestRangedLatentMidRun(t *testing.T) {
	const bs, n = 32, 4
	reg := telemetry.NewRegistry()
	d := NewDisk(7, bs)
	d.SetTelemetry(reg, nil)
	data := make([]byte, n*bs)
	rand.New(rand.NewSource(2)).Read(data)
	if err := d.WriteBlocks(10, data); err != nil {
		t.Fatal(err)
	}
	d.InjectLatentError(12)
	d.ResetStats()

	buf := make([]byte, n*bs)
	err := d.ReadBlocks(10, buf)
	if !errors.Is(err, ErrLatent) {
		t.Fatalf("ReadBlocks over a latent block = %v, want ErrLatent", err)
	}
	if want := "disk 7 block 12"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("error %q does not name %s", err, want)
	}
	if st := d.Stats(); st.Total() != 0 {
		t.Errorf("failed run counted I/O: %+v", st)
	}
	if got := reg.Counter("vdisk.latent_errors").Value(); got != 1 {
		t.Errorf("vdisk.latent_errors = %d, want 1", got)
	}
	// The blocks either side of it are still readable on their own.
	if err := d.ReadBlocks(10, buf[:2*bs]); err != nil {
		t.Errorf("run ahead of the latent block: %v", err)
	}
	if err := d.Read(13, buf[:bs]); err != nil {
		t.Errorf("block behind the latent block: %v", err)
	}
	if err := d.WriteBlocks(11, data[bs:3*bs]); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlocks(10, buf); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("after rewriting the run: err %v, contents equal %v", err, bytes.Equal(buf, data))
	}
}

// TestFailedRunStillAdvancesInjector: a run that fails at its k-th block has
// put k+1 attempts on the injector's clock, like the one-block reads up to it,
// though Stats shows none of them — so a per-block retry of the same run
// reaches a scheduled FailAtIO that many attempts sooner than Stats suggests.
func TestFailedRunStillAdvancesInjector(t *testing.T) {
	const bs, n = 16, 4
	d := NewDisk(0, bs)
	if err := d.WriteBlocks(0, make([]byte, n*bs)); err != nil {
		t.Fatal(err)
	}
	d.InjectLatentError(2)
	if err := d.SetFaults(FaultConfig{Seed: 1, FailAtIO: 6}); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	buf := make([]byte, n*bs)
	if err := d.ReadBlocks(0, buf); !errors.Is(err, ErrLatent) {
		t.Fatalf("ReadBlocks = %v, want ErrLatent", err)
	}
	if st := d.Stats(); st.Total() != 0 || d.faults.ios != 3 {
		t.Fatalf("after the failed run: Stats %+v, injector at attempt %d; want nothing counted and 3 attempts", st, d.faults.ios)
	}
	// The fallback a caller makes, block by block: attempts 4 and 5 succeed,
	// the sixth — the third block, again — is the scheduled failure.
	for blk, want := range []error{nil, nil, ErrFailed} {
		if err := d.Read(int64(blk), buf[:bs]); !errors.Is(err, want) {
			t.Fatalf("block %d of the retry: %v, want %v", blk, err, want)
		}
	}
	if st := d.Stats(); st.Reads != 2 {
		t.Errorf("Stats counts %d reads at the scheduled failure, want 2 (of 6 attempts)", st.Reads)
	}
}

// TestRangedFailedDiskAndBadLengths: a fail-stopped disk refuses runs like
// single blocks, and a run must be a positive whole number of blocks at a
// non-negative address.
func TestRangedFailedDiskAndBadLengths(t *testing.T) {
	const bs = 16
	d := NewDisk(0, bs)
	buf := make([]byte, 4*bs)
	for _, c := range []struct {
		name string
		b    int64
		n    int
	}{
		{"empty", 0, 0},
		{"short of a block", 0, bs - 1},
		{"a block and a half", 0, bs + bs/2},
		{"negative address", -1, 2 * bs},
	} {
		if err := d.ReadBlocks(c.b, buf[:c.n]); !errors.Is(err, ErrBadBlock) {
			t.Errorf("ReadBlocks %s = %v, want ErrBadBlock", c.name, err)
		}
		if err := d.WriteBlocks(c.b, buf[:c.n]); !errors.Is(err, ErrBadBlock) {
			t.Errorf("WriteBlocks %s = %v, want ErrBadBlock", c.name, err)
		}
	}
	// Read and Write stay one block exactly.
	if err := d.Read(0, buf[:2*bs]); !errors.Is(err, ErrBadBlock) {
		t.Errorf("Read of two blocks = %v, want ErrBadBlock", err)
	}
	if err := d.Write(0, buf[:2*bs]); !errors.Is(err, ErrBadBlock) {
		t.Errorf("Write of two blocks = %v, want ErrBadBlock", err)
	}
	if st := d.Stats(); st.Total() != 0 {
		t.Errorf("rejected requests counted I/O: %+v", st)
	}

	d.Fail()
	if err := d.ReadBlocks(0, buf); !errors.Is(err, ErrFailed) {
		t.Errorf("ReadBlocks on a failed disk = %v, want ErrFailed", err)
	}
	if err := d.WriteBlocks(0, buf); !errors.Is(err, ErrFailed) {
		t.Errorf("WriteBlocks on a failed disk = %v, want ErrFailed", err)
	}
	if st := d.Stats(); st.Total() != 0 {
		t.Errorf("failed disk counted I/O: %+v", st)
	}
}

// TestRangedRetriesTransients: the retry policy covers a run as it covers a
// block — the whole run is attempted again.
func TestRangedRetriesTransients(t *testing.T) {
	const bs, n = 16, 8
	reg := telemetry.NewRegistry()
	d := NewDisk(0, bs)
	d.SetTelemetry(reg, nil)
	data := make([]byte, n*bs)
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
	for i := 0; i < 20; i++ {
		if err := d.ReadBlocks(0, data); err != nil {
			t.Fatalf("run %d not absorbed by 50 retries: %v", i, err)
		}
	}
	if got := d.Stats().Reads; got != 20*n {
		t.Errorf("Stats.Reads = %d, want %d (failed attempts are not counted)", got, 20*n)
	}
	if reg.Counter("vdisk.retries").Value() == 0 {
		t.Error("a 20% per-block transient rate over 20 eight-block runs needed no retry")
	}
}
