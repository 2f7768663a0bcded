package telemetry

import (
	"testing"
	"time"
)

// The instruments' mutating paths carry //c56:noalloc annotations —
// they sit on every per-I/O hot path in the repository — and c56-lint
// proves them allocation-free statically. These AllocsPerRun assertions
// are the runtime half of that contract.
func TestInstrumentsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	reg := NewRegistry()
	c := reg.Counter("alloctest.counter")
	g := reg.Gauge("alloctest.gauge")
	h := reg.Histogram("alloctest.histogram", []float64{1, 10, 100})
	r := reg.Rate("alloctest.rate")
	r.Inc() // warm the clock path
	sec := time.Now().Unix()
	for name, fn := range map[string]func(){
		"Counter.Inc":        func() { c.Inc() },
		"Counter.Add":        func() { c.Add(3) },
		"Counter.Value":      func() { _ = c.Value() },
		"Gauge.Set":          func() { g.Set(7) },
		"Gauge.Add":          func() { g.Add(-2) },
		"Gauge.Value":        func() { _ = g.Value() },
		"Histogram.Observe":  func() { h.Observe(12.5) },
		"Histogram.ObserveN": func() { h.ObserveN(12.5, 3) },
		"Rate.Inc":           func() { r.Inc() },
		"Rate.Add":           func() { r.Add(4) },
		"Rate.AddSec":        func() { r.AddSec(sec, 4) },
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}
