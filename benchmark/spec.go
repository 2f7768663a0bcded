package main

import (
	"encoding/json"
)

// runSeconds is how long one run measures (BENCHMARK.json's run_seconds):
// the driver makes 4 + 22 × 4 runs inside 3420 s with two builds, so a run —
// set-up and closing oracle included — must stay under 35 s.
const runSeconds = 30

// workload is one input set of the benchmark. Every workload takes an array
// through the same journey (see journey.go) and reports the same metrics;
// they differ in the one factor that decides which layer dominates. The
// volumes are 200 MB of user data: large against every cache, and small
// enough for a run to walk the journey a dozen times (journey.go).
type workload struct {
	Name string
	Why  string

	file    bool  // durable directory + WAL instead of memory
	wire    bool  // foreground clients go over HTTP instead of in process
	disks   int   // RAID-5 disks; p = disks+1
	block   int   // block size, bytes
	stripes int64 // Code 5-6 stripes in the volume
	rate    int   // paced phase: ops/s per client

	// checkpoint is the migration's WAL checkpoint interval in stripes; 0
	// leaves the default (16). See fileCheckpoint.
	checkpoint int64
}

// fileCheckpoint is the file workload's checkpoint interval. Each checkpoint
// fsyncs the WAL, which the benchmark cannot keep off the device as it does
// the disk images' flushes (flushlessStore): at the default interval of 16
// stripes those 260 fsyncs are a third of a conversion, at 256 stripes the
// 19 left are a twentieth, and the device's mood stays out of convert_mbps.
const fileCheckpoint = 256

var workloads = []workload{
	{
		Name:  "convert_mem",
		Why:   "baseline: in-memory array, p=5, 4 KiB blocks, in-process clients; migrate+vdisk+xorblk do all the work, no syscalls",
		disks: 4, block: 4096, stripes: 4096, rate: 1000,
	},
	{
		Name: "convert_file_fg",
		Why:  "baseline on a durable directory: filestore syscalls and WAL checkpoints dominate conversion and foreground writes; device flushes kept out",
		file: true, disks: 4, block: 4096, stripes: 4096, rate: 1000, checkpoint: fileCheckpoint,
	},
	{
		Name: "serve_wire",
		Why:  "baseline with the foreground clients over HTTP: admission and per-block round trips dominate, array compute is a rounding error",
		wire: true, disks: 4, block: 4096, stripes: 4096, rate: 1000,
	},
	{
		Name:  "array_ops",
		Why:   "baseline at p=13 with 16 KiB blocks: kernel- and decoder-bound encode, rebuild and scrub instead of per-call overhead",
		disks: 12, block: 16384, stripes: 96, rate: 1000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to CI size.
func (w workload) smoke() workload {
	w.stripes = 96
	if w.disks == 12 {
		w.stripes = 6
	}
	w.rate = 500
	return w
}

func (w workload) p() int           { return w.disks + 1 }
func (w workload) rows() int64      { return w.stripes * int64(w.disks) }
func (w workload) blocks() int64    { return w.rows() * int64(w.disks-1) }
func (w workload) userBytes() int64 { return w.blocks() * int64(w.block) }
func (w workload) perStripe() int64 { return int64(w.disks) * int64(w.disks-1) }

// metric is one named number the benchmark prints.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the array sees, measured in the untraced run
// by every workload. Bound is the share of the parent's median a metric may
// worsen by before a change is rejected. The recorded host is a 2-vCPU VM on
// a shared machine: in a quiet hour the ten-seed quartile spreads are a few
// per cent (README.md), in a busy one several times that, so every bound is
// the contract's widest.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"convert_mbps", "MB/s", "higher", 0.25},
	{"fg_kops", "kops/s", "higher", 0.25},
	{"seq_write_mbps", "MB/s", "higher", 0.25},
	{"rmw_write_kops", "kops/s", "higher", 0.25},
	{"degraded_read_kops", "kops/s", "higher", 0.25},
	{"rebuild_mbps", "MB/s", "higher", 0.25},
	{"scrub_mbps", "MB/s", "higher", 0.25},
}

// demoted are the four paced-latency metrics the issue listed as end-to-end.
// Their run-to-run spread on the recorded host is 13-32 % (medians) and
// 44-416 % (p99s), several times any bound the contract allows, so by the
// issue's own rule they are per-layer metrics under the same names. The
// untraced run still prints them, marked ungated.
var demoted = []metric{
	{Name: "read_p50_us", Unit: "us", Better: "lower"},
	{Name: "read_p99_us", Unit: "us", Better: "lower"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p99_us", Unit: "us", Better: "lower"},
}

// perLayer is what the traced run reports, layer by layer (layer = module
// name). README.md's table says which end-to-end metric each should move.
var perLayer = append(append([]metric(nil), demoted...), []metric{
	{Name: "xorblk.xormulti_gbps.4k", Unit: "GB/s", Better: "higher"},
	{Name: "xorblk.xormulti_gbps.16k", Unit: "GB/s", Better: "higher"},
	{Name: "layout.encode_gbps.p5_4k", Unit: "GB/s", Better: "higher"},
	{Name: "layout.encode_gbps.p13_16k", Unit: "GB/s", Better: "higher"},
	{Name: "layout.verify_gbps.p13_16k", Unit: "GB/s", Better: "higher"},
	{Name: "layout.reconstruct2_gbps.p13_16k", Unit: "GB/s", Better: "higher"},
	{Name: "raid6.xors_per_rebuilt_block", Unit: "count", Better: "lower"},
	{Name: "raid6.degraded_fast_path_ratio", Unit: "ratio", Better: "higher"},
	{Name: "raid6.self_share.rebuild", Unit: "ratio", Better: "lower"},
	{Name: "raid6.self_share.rmw", Unit: "ratio", Better: "lower"},
	{Name: "vdisk.ios_per_data_block", Unit: "count", Better: "lower"},
	{Name: "vdisk.reads_per_fg_write", Unit: "count", Better: "lower"},
	{Name: "vdisk.writes_per_fg_write", Unit: "count", Better: "lower"},
	{Name: "store.read_calls_per_stripe", Unit: "count", Better: "lower"},
	{Name: "store.write_calls_per_stripe", Unit: "count", Better: "lower"},
	{Name: "store.read_busy_s", Unit: "s", Better: "lower"},
	{Name: "store.write_busy_s", Unit: "s", Better: "lower"},
	{Name: "store.sync_calls", Unit: "count", Better: "lower"},
	{Name: "store.sync_busy_s", Unit: "s", Better: "lower"},
	{Name: "store.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "store.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_100_stripes", Unit: "count", Better: "lower"},
	{Name: "migrate.conv_xors_per_stripe", Unit: "count", Better: "lower"},
	{Name: "migrate.self_share", Unit: "ratio", Better: "lower"},
	{Name: "migrate.redo_ratio", Unit: "ratio", Better: "lower"},
	{Name: "migrate.write_interrupts", Unit: "count", Better: "lower"},
	{Name: "migrate.diagonal_updates", Unit: "count", Better: "lower"},
	{Name: "migrate.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "migrate.write_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.blockio_read_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.blockio_write_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.self_read_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.self_write_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.gen_late_us_p99", Unit: "us", Better: "lower"},
	{Name: "tax.encode_over_xor", Unit: "ratio", Better: "lower"},
	{Name: "tax.convert_over_encode", Unit: "ratio", Better: "lower"},
	{Name: "tax.convert_over_store", Unit: "ratio", Better: "lower"},
	{Name: "tax.wire_over_blockio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},
}...)

func boundOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// benchmarkJSON renders BENCHMARK.json from the tables above, which are the
// single source of the names (a test holds the committed file to this).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
