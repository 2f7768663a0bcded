package vdisk

import (
	"strconv"

	"code56/internal/telemetry"
)

// Telemetry metric names (see README "Telemetry" for the full reference):
//
//	vdisk.reads / vdisk.writes           counters, monotonic, all disks; blocks
//	vdisk.read_errors                    counter, failed/latent/transient reads
//	vdisk.write_errors                   counter, failed/transient writes
//	vdisk.latent_errors                  counter, latent-sector read hits
//	vdisk.transient_errors               counter, injector transient faults
//	vdisk.retries                        counter, transient retry attempts
//	vdisk.failures / vdisk.replacements  counters, Fail()/Replace() calls
//	vdisk.syncs                          counter, durability barriers (Sync)
//	vdisk.io_bytes                       histogram, bytes per served block I/O
//	vdisk.io_rate                        rate, served block I/Os (IOPS windows)
//	vdisk.disk.<id>.reads / .writes      gauges, mirror Stats (resettable)
//	vdisk.disk.<id>.read_latency_us      histogram, per-disk read latency
//	vdisk.disk.<id>.write_latency_us     histogram, per-disk write latency
//	vdisk.mem_mapped_bytes               gauge, MemStore slab bytes mapped
//
// Everything above counts blocks — a ranged call of n blocks adds n — except
// the latency histograms (one observation per store call) and mem_mapped_bytes.
//
// Trace events: vdisk.fail, vdisk.replace, vdisk.scheduled_fail,
// vdisk.latent_injected, vdisk.latent_hit — each with a "disk" attribute.

// latencyBucketsUS covers the sub-microsecond slab copy through a slow
// multi-millisecond contended access.
var latencyBucketsUS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// sizeBuckets covers the block sizes the paper evaluates (4 KB and 8 KB)
// plus the neighbors tests use.
var sizeBuckets = []float64{512, 1024, 2048, 4096, 8192, 16384, 65536}

// mappedBytes counts the bytes of MemStore slabs mapped and not yet unmapped,
// in use or pooled: the in-memory medium, which the heap statistics omit.
var mappedBytes = telemetry.Default().Gauge("vdisk.mem_mapped_bytes")

// diskTel holds one disk's bound instruments. All fields are resolved at
// bind time so the hot path performs no registry lookups.
type diskTel struct {
	tr     *telemetry.Tracer
	reads  *telemetry.Gauge // mirrors Stats.Reads; zeroed by ResetStats
	writes *telemetry.Gauge // mirrors Stats.Writes; zeroed by ResetStats
	// readLat/writeLat measure device service time only: the clock starts
	// after the disk's lock is acquired, so queueing behind concurrent
	// callers (lock contention) never inflates the histograms.
	readLat  *telemetry.Histogram
	writeLat *telemetry.Histogram
	ioBytes  *telemetry.Histogram
	// ioRate feeds the live IOPS windows (1 s/10 s/60 s + EWMA) the
	// observability plane and watch mode display; shared across disks.
	ioRate     *telemetry.Rate
	allReads   *telemetry.Counter // monotonic, shared across disks
	allWrites  *telemetry.Counter
	readErrs   *telemetry.Counter
	writeErrs  *telemetry.Counter
	latent     *telemetry.Counter
	transients *telemetry.Counter // injector-produced transient faults
	retries    *telemetry.Counter // retry attempts after transient faults
	fails      *telemetry.Counter
	replaces   *telemetry.Counter
	syncs      *telemetry.Counter // durability barriers (Disk.Sync calls)
}

// bindTelemetry (re)binds the disk's instruments to a registry and tracer.
// nil selects the process-wide defaults.
func (d *Disk) bindTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Per-disk instruments go through the PerInstance seam so the name
	// fragments stay compile-time constants (the metricname invariant);
	// only the disk id is runtime data.
	inst := reg.PerInstance("vdisk.disk", strconv.Itoa(d.id))
	d.tel = diskTel{
		tr:         tr,
		reads:      inst.Gauge("reads"),
		writes:     inst.Gauge("writes"),
		readLat:    inst.Histogram("read_latency_us", latencyBucketsUS),
		writeLat:   inst.Histogram("write_latency_us", latencyBucketsUS),
		ioBytes:    reg.Histogram("vdisk.io_bytes", sizeBuckets),
		ioRate:     reg.Rate("vdisk.io_rate"),
		allReads:   reg.Counter("vdisk.reads"),
		allWrites:  reg.Counter("vdisk.writes"),
		readErrs:   reg.Counter("vdisk.read_errors"),
		writeErrs:  reg.Counter("vdisk.write_errors"),
		latent:     reg.Counter("vdisk.latent_errors"),
		transients: reg.Counter("vdisk.transient_errors"),
		retries:    reg.Counter("vdisk.retries"),
		fails:      reg.Counter("vdisk.failures"),
		replaces:   reg.Counter("vdisk.replacements"),
		syncs:      reg.Counter("vdisk.syncs"),
	}
	d.tel.reads.Set(d.stats.Reads)
	d.tel.writes.Set(d.stats.Writes)
}

// SetTelemetry rebinds the disk's instruments. Pass nil for either argument
// to use telemetry.Default() / telemetry.DefaultTracer().
func (d *Disk) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.bindTelemetry(reg, tr)
}

// SetTelemetry rebinds every current disk's instruments and makes future
// Add()ed disks bind to the same registry and tracer. Pass nil for either
// argument to use the process-wide defaults.
func (a *Array) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	a.mu.Lock()
	a.reg, a.tr = reg, tr
	a.mu.Unlock()
	for _, d := range a.all() {
		d.bindTelemetry(reg, tr)
	}
}
