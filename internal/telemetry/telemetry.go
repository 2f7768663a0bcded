// Package telemetry is the repository's dependency-free observability
// substrate: a metrics registry of atomic counters, gauges and fixed-bucket
// histograms, plus a lightweight span/event tracer with pluggable sinks
// (JSON-lines, an in-memory ring for tests, and expvar-style text
// exposition of the registry).
//
// The paper's whole argument is quantitative — conversion I/O counts, XOR
// tallies, online-migration interference — so the same quantities the
// offline analysis (internal/analysis) derives from plans are counted live
// here as the engines run. Every layer of the stack records into a
// Registry: vdisk (per-disk I/O latency/size), raid5/raid6 (stripe I/O,
// degraded reads, parity updates, XORs), migrate (conversion progress,
// write redirects), recovery (reads/XORs per rebuilt element) and disksim
// (replayed requests, service times).
//
// Instruments are get-or-create by name and safe for concurrent use; the
// hot-path cost of an un-sinked tracer or an idle registry is a few atomic
// operations. Components accept an explicit *Registry/*Tracer and fall
// back to the process-wide Default()/DefaultTracer() when given nil, so
// CLIs can simply dump Default() at exit while tests isolate themselves
// with fresh instances.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0; negative deltas are
// ignored to preserve monotonicity).
//
//c56:noalloc
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
//
//c56:noalloc
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
//
//c56:noalloc
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value: it can move both ways and be
// reset, unlike a Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//c56:noalloc
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (either sign).
//
//c56:noalloc
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
//
//c56:noalloc
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counters.
// Bucket i counts observations v <= Bounds[i]; the last bucket is the
// overflow (+Inf) bucket. The observation count is always the sum of the
// bucket counters, so snapshots cannot tear between count and buckets.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
//
//c56:noalloc
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value in one update (a
// ranged disk I/O carries n blocks of one size).
//
//c56:noalloc
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	// A scan, not a binary search: every histogram in the repository has at
	// most 13 bounds and most observations land in the first few. The
	// condition is written so that NaN falls through to the overflow bucket,
	// as sort.SearchFloat64s placed it.
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.buckets[i].Add(n)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the upper bucket bounds; Counts has len(Bounds)+1
	// entries, the last being the overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	// Count is the total number of observations (sum of Counts).
	Count int64 `json:"count"`
	// Sum is the sum of observed values.
	Sum float64 `json:"sum"`
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]; out-of-range values are
// clamped) by linear interpolation within the bucket holding the target
// rank, the same estimate Prometheus's histogram_quantile computes. The
// first bucket interpolates from 0 (or from its bound when that is
// negative); ranks landing in the +Inf overflow bucket return the largest
// finite bound, since there is nothing to interpolate toward. An empty
// histogram returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	if len(s.Bounds) == 0 {
		// Only the overflow bucket exists: the mean is the best estimate.
		return s.Mean()
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if rank > float64(cum+c) {
			cum += c
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		} else if s.Bounds[0] < 0 {
			lower = s.Bounds[0]
		}
		upper := s.Bounds[i]
		return lower + (upper-lower)*(rank-float64(cum))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot returns a copy of the histogram's current state. Count is
// derived from the bucket counters, so it equals their sum exactly.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: append([]float64(nil), h.bounds...)}
	s.Counts = make([]int64, len(h.buckets))
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// Registry holds named instruments. Lookup is get-or-create: the first
// registration of a name fixes its kind (and, for histograms, its bucket
// bounds); later lookups return the same instrument.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   //c56:guardedby mu
	gauges   map[string]*Gauge     //c56:guardedby mu
	hists    map[string]*Histogram //c56:guardedby mu
	rates    map[string]*Rate      //c56:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		rates:    make(map[string]*Rate),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Components fall back to it
// when handed a nil *Registry.
func Default() *Registry { return defaultRegistry }

// orDefault resolves nil to the process-wide registry, so call sites can
// hold a possibly-nil *Registry and still always record.
func (r *Registry) orDefault() *Registry {
	if r == nil {
		return defaultRegistry
	}
	return r
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r = r.orDefault()
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r = r.orDefault()
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given upper
// bucket bounds if needed. The first registration's bounds win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r = r.orDefault()
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Rate returns the named windowed-rate instrument, creating it if needed.
func (r *Registry) Rate(name string) *Rate {
	r = r.orDefault()
	r.mu.RLock()
	rt := r.rates[name]
	r.mu.RUnlock()
	if rt != nil {
		return rt
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rt = r.rates[name]; rt == nil {
		rt = newRate()
		r.rates[name] = rt
	}
	return rt
}

// Instanced is a per-instance namespace of a registry: instruments named
// "<prefix>.<id>.<suffix>", e.g. "vdisk.disk.3.reads". It exists so that
// dynamic identities (one gauge per disk, per shard, per backend) have a
// single sanctioned seam: the prefix and every suffix remain compile-time
// constants — which the c56-lint metricname analyzer enforces — while the
// instance id carries the only runtime-varying part of the name.
type Instanced struct {
	r    *Registry
	base string // "<prefix>.<id>"
}

// PerInstance returns the instrument namespace "<prefix>.<id>". The prefix
// must be a constant in pkg.snake_case (enforced by c56-lint's metricname
// analyzer); the id is free-form runtime data identifying the instance.
func (r *Registry) PerInstance(prefix, id string) Instanced {
	return Instanced{r: r.orDefault(), base: prefix + "." + id}
}

// Counter returns the instance's counter "<prefix>.<id>.<suffix>".
func (i Instanced) Counter(suffix string) *Counter {
	return i.r.Counter(i.base + "." + suffix)
}

// Gauge returns the instance's gauge "<prefix>.<id>.<suffix>".
func (i Instanced) Gauge(suffix string) *Gauge {
	return i.r.Gauge(i.base + "." + suffix)
}

// Histogram returns the instance's histogram "<prefix>.<id>.<suffix>",
// creating it with the given upper bucket bounds if needed.
func (i Instanced) Histogram(suffix string, bounds []float64) *Histogram {
	return i.r.Histogram(i.base+"."+suffix, bounds)
}

// Snapshot is a point-in-time copy of every instrument in a registry.
// Individual values are read atomically; since counters are monotonic, a
// snapshot taken while writers run never shows a counter lower than an
// earlier snapshot did.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Rates      map[string]RateSnapshot      `json:"rates,omitempty"`
}

// Snapshot captures every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	r = r.orDefault()
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Rates:      make(map[string]RateSnapshot, len(r.rates)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, rt := range r.rates {
		s.Rates[name] = rt.Snapshot()
	}
	return s
}

// WriteText writes an expvar-style text exposition: one "name value" line
// per instrument, sorted by name. Histograms expose count, sum and mean.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+3*len(s.Histograms)+2*len(s.Rates))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s.count %d", name, h.Count),
			fmt.Sprintf("%s.sum %g", name, h.Sum),
			fmt.Sprintf("%s.mean %g", name, h.Mean()))
	}
	for name, rt := range s.Rates {
		lines = append(lines,
			fmt.Sprintf("%s.total %d", name, rt.Total),
			fmt.Sprintf("%s.ewma %g", name, rt.EWMA))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the full snapshot (including histogram buckets) as one
// indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
