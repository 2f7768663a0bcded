package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.reads")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x.reads") != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("x.depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	// Nil instruments and nil registries are inert, not panics.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	var nr *Registry
	nr.Counter("via.default").Inc()
	if Default().Counter("via.default").Value() != 1 {
		t.Fatal("nil registry should fall back to Default()")
	}
}

// TestHistogramBucketChoice holds ObserveN's bound scan to the binary search
// it replaced, on every bound, both sides of each, the infinities and NaN.
func TestHistogramBucketChoice(t *testing.T) {
	bounds := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}
	values := []float64{math.Inf(-1), -1, 0, math.Inf(1), math.NaN(), 7000}
	for _, b := range bounds {
		values = append(values, math.Nextafter(b, 0), b, math.Nextafter(b, 1e9))
	}
	for _, v := range values {
		h := newHistogram(bounds)
		h.Observe(v)
		want := sort.SearchFloat64s(bounds, v)
		for i, c := range h.Snapshot().Counts {
			if (c == 1) != (i == want) {
				t.Fatalf("Observe(%g) counted %d in bucket %d; the value belongs in bucket %d", v, c, i, want)
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 50, 500} {
		h.Observe(v)
	}
	h.ObserveN(5, 2) // two observations of one value in one update
	h.ObserveN(7, 0) // records nothing
	s := h.Snapshot()
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 560.5 {
		t.Fatalf("sum = %g, want 560.5", s.Sum)
	}
	if got := s.Mean(); got != 112.1 {
		t.Fatalf("mean = %g, want 112.1", got)
	}
}

// TestSnapshotCoherence hammers a registry from many goroutines and checks
// that snapshots are never torn: counters never regress between snapshots
// and a histogram's count always equals the sum of its buckets.
func TestSnapshotCoherence(t *testing.T) {
	r := NewRegistry()
	const writers, each = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops")
			h := r.Histogram("size", []float64{1, 2, 4, 8})
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(float64(i % 10))
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()

	var lastOps int64
	for {
		s := r.Snapshot()
		if v := s.Counters["ops"]; v < lastOps {
			t.Fatalf("counter regressed: %d -> %d", lastOps, v)
		} else {
			lastOps = v
		}
		if h, ok := s.Histograms["size"]; ok {
			var sum int64
			for _, c := range h.Counts {
				sum += c
			}
			if sum != h.Count {
				t.Fatalf("torn histogram: count %d != bucket sum %d", h.Count, sum)
			}
		}
		select {
		case <-stop:
			s := r.Snapshot()
			if s.Counters["ops"] != writers*each {
				t.Fatalf("final ops = %d, want %d", s.Counters["ops"], writers*each)
			}
			if s.Histograms["size"].Count != writers*each {
				t.Fatalf("final hist count = %d, want %d", s.Histograms["size"].Count, writers*each)
			}
			return
		default:
		}
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(-4)
	r.Histogram("h", []float64{1}).Observe(3)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	want := []string{"a.count 1", "b.count 2", "g -4", "h.count 1", "h.mean 3", "h.sum 3"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines %v, want %d", len(lines), lines, len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}

	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if s.Counters["b.count"] != 2 || s.Gauges["g"] != -4 || s.Histograms["h"].Count != 1 {
		t.Fatalf("JSON round-trip mismatch: %+v", s)
	}
}

func TestTracerSpansAndRing(t *testing.T) {
	ring := NewRingSink(16)
	tr := NewTracer(ring)
	sp := tr.StartSpan("work", A("n", 3))
	sp.Event("step", A("i", 0))
	sp.End(A("ok", true))
	tr.Event("loose")

	ev := ring.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	if ev[0].Phase != "begin" || ev[0].Name != "work" || ev[0].Span == 0 {
		t.Fatalf("bad begin event %+v", ev[0])
	}
	if ev[1].Phase != "event" || ev[1].Span != ev[0].Span {
		t.Fatalf("span event not linked: %+v", ev[1])
	}
	if ev[2].Phase != "end" || ev[2].Dur < 0 {
		t.Fatalf("bad end event %+v", ev[2])
	}
	if ev[3].Phase != "event" || ev[3].Span != 0 {
		t.Fatalf("bad loose event %+v", ev[3])
	}
}

func TestTracerNilAndSinkless(t *testing.T) {
	var tr *Tracer // falls back to the (sink-less) default tracer
	sp := tr.StartSpan("noop")
	sp.Event("e")
	sp.End()
	tr.Event("e2")

	sl := NewTracer()
	if sp := sl.StartSpan("noop"); sp != nil {
		t.Fatal("sink-less tracer should return an inert nil span")
	}
}

func TestRingSinkEviction(t *testing.T) {
	ring := NewRingSink(3)
	for i := 0; i < 5; i++ {
		ring.Emit(Event{Name: string(rune('a' + i))})
	}
	ev := ring.Events()
	if ring.Total() != 5 || len(ev) != 3 {
		t.Fatalf("total %d retained %d, want 5/3", ring.Total(), len(ev))
	}
	if ev[0].Name != "c" || ev[2].Name != "e" {
		t.Fatalf("wrong eviction order: %v", ev)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	sp := tr.StartSpan("phase", A("name", "migrate"))
	time.Sleep(time.Millisecond)
	sp.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var begin, end map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &begin); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &end); err != nil {
		t.Fatal(err)
	}
	if begin["phase"] != "begin" || begin["name"] != "phase" {
		t.Fatalf("bad begin line: %v", begin)
	}
	if attrs, ok := begin["attrs"].(map[string]any); !ok || attrs["name"] != "migrate" {
		t.Fatalf("bad attrs: %v", begin)
	}
	if end["phase"] != "end" || end["dur_us"].(float64) <= 0 {
		t.Fatalf("bad end line: %v", end)
	}
}
