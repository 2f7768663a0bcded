package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"code56"
	"code56/internal/vdisk"
	"code56/internal/vdisk/filestore"
)

// TestSmoke is the CI hook: every workload, untraced and traced, at tiny
// sizes through the same code path the driver uses. Each run's last line
// must be the result object, carrying exactly the names BENCHMARK.json
// lists for that kind of run, each finite, with no failed operation.
func TestSmoke(t *testing.T) {
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := runHere(&out, w.Name, traced, "", t.TempDir(), 7, 0.6, true); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line jsonLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, line.Correct, line.Attempted, line.Failed, out.String())
			}
			want := doc.EndToEnd
			if traced {
				want = doc.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				// The human-readable listing names each metric once too.
				if n := strings.Count(out.String(), "\n  "+m.Name+" "); n != 1 {
					t.Errorf("%s traced=%v: %s printed %d times", w.Name, traced, m.Name, n)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the tables in
// spec.go and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must carry setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", n, len(endToEnd), len(perLayer))
	}
	// 4 + 22 runs per workload, each the measured seconds plus set-up and
	// oracle (under 3 s on the recorded host), inside 3420 s with two builds.
	if total := (4 + 22*len(workloads)) * (runSeconds + 3); total > 3420-120 {
		t.Errorf("the driver's runs would take about %d s", total)
	}
}

// smallJourney sets a tiny array up for the tests below.
func smallJourney(t *testing.T, name string, traced bool) *journey {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	o := runOpts{w: w.smoke(), seed: 3, seconds: 0.5, traced: traced, smoke: true, scratch: t.TempDir()}
	j := &journey{runOpts: o, res: &result{Correct: true, Values: map[string]float64{}, Samples: map[string]int{}}}
	if traced {
		j.t = newTracer()
	}
	if o.w.file {
		j.dir = o.scratch + "/array"
	}
	if err := j.setup(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.r5.Disks().Close() })
	return j
}

// convert migrates the journey's array without the block server.
func convert(t *testing.T, j *journey) (*code56.OnlineMigrator, *code56.RAID6) {
	t.Helper()
	mig, err := code56.NewMigrator(j.r5, j.w.rows())
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	return mig, r6
}

// TestOracleSeesOneFlippedByte flips one byte behind the array's back —
// first in a data block, then in a parity block — and requires the oracle
// to report each.
func TestOracleSeesOneFlippedByte(t *testing.T) {
	j := smallJourney(t, "convert_mem", false)
	_, r6 := convert(t, j)
	if rep := j.sh.check(r6, j.w.stripes); !rep.ok() {
		t.Fatalf("clean array fails the oracle: %+v", rep)
	}
	flip := func(disk int, block int64) {
		buf := make([]byte, j.w.block)
		d := r6.Disks().Disk(disk)
		if err := d.Read(block, buf); err != nil {
			t.Fatal(err)
		}
		buf[17] ^= 0x40
		if err := d.Write(block, buf); err != nil {
			t.Fatal(err)
		}
	}
	row, disk := j.r5.Locate(5)
	flip(disk, row)
	rep := j.sh.check(r6, j.w.stripes)
	if rep.blocksBad != 1 || rep.stripesBad != 1 {
		t.Errorf("flipped data byte: oracle reports %d bad blocks and %d bad stripes, want 1 and 1", rep.blocksBad, rep.stripesBad)
	}
	flip(disk, row) // undo
	flip(j.w.disks, 9)
	rep = j.sh.check(r6, j.w.stripes)
	if rep.blocksBad != 0 || rep.stripesBad != 1 {
		t.Errorf("flipped diagonal-parity byte: oracle reports %d bad blocks and %d bad stripes, want 0 and 1", rep.blocksBad, rep.stripesBad)
	}
}

// TestTimingBackendKeepsTheJournal is the regression test for a wrapper
// that hides Dir(): NewMigrator would silently drop the WAL and the traced
// run would measure a different program.
func TestTimingBackendKeepsTheJournal(t *testing.T) {
	j := smallJourney(t, "convert_file_fg", true)
	if _, ok := j.r5.Disks().Backend().(dirBackend); !ok {
		t.Fatal("timing backend over filestore does not forward Dir()")
	}
	mig, _ := convert(t, j)
	jr := mig.Journal()
	if jr == nil {
		t.Fatal("migration over the timing backend is not journaled")
	}
	defer jr.Close()
	if jr.Syncs() == 0 {
		t.Error("journal made no durability barrier")
	}
	if j.t.store.syncs.Load() == 0 || j.t.store.syncNs.Load() == 0 {
		t.Error("timing store saw no fsync")
	}
	if _, ok := wrapBackend(vdisk.MemBackend{}, j.t).(dirBackend); ok {
		t.Error("timing backend over memory invents Dir()")
	}
}

// TestTimingStoreKeepsCapabilities checks the wrapper has exactly the
// optional interfaces of the store it wraps, for both of the repo's stores.
func TestTimingStoreKeepsCapabilities(t *testing.T) {
	fs, err := filestore.Open(t.TempDir() + "/d.img")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, inner := range []vdisk.BlockStore{vdisk.NewMemStore(512), fs} {
		w, err := keepCapabilities(&timedStore{BlockStore: inner, t: newTracer()}, inner)
		if err != nil {
			t.Fatal(err)
		}
		_, it := inner.(vdisk.Trimmer)
		_, wt := w.(vdisk.Trimmer)
		_, ir := inner.(vdisk.Resetter)
		_, wr := w.(vdisk.Resetter)
		_, ie := inner.(vdisk.ExtentLister)
		_, we := w.(vdisk.ExtentLister)
		if it != wt || ir != wr || ie != we {
			t.Errorf("%T: trim %v/%v reset %v/%v extents %v/%v (inner/wrapper)", inner, it, wt, ir, wr, ie, we)
		}
	}
	bare := struct{ vdisk.BlockStore }{vdisk.NewMemStore(512)}
	if _, err := keepCapabilities(flushlessStore{BlockStore: bare}, bare); err != nil {
		t.Errorf("a store with no optional capability: %v", err)
	}
}

// TestSetsTable checks the -sets gate: it passes within bounds and names
// the metric that moved by more than its bound.
func TestSetsTable(t *testing.T) {
	var out bytes.Buffer
	steadyTable := map[string][]float64{"convert_mem/convert_mbps": {100, 104, 98}, "convert_mem/store.busy_share": {0.1, 0.9, 0.5}}
	if err := printSets(&out, steadyTable, 3); err != nil {
		t.Errorf("within bounds: %v", err)
	}
	err := printSets(&out, map[string][]float64{"convert_mem/convert_mbps": {100, 130, 98}}, 3)
	if err == nil || !strings.Contains(err.Error(), "convert_mem/convert_mbps") {
		t.Errorf("32%% apart under a 25%% bound: err = %v", err)
	}
}
