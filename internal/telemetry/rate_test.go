package telemetry

import (
	"sync"
	"testing"
	"time"
)

// fakeClock drives a Rate deterministically and counts how often it is read.
type fakeClock struct {
	mu    sync.Mutex
	t     time.Time
	reads int
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRateWindows(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry()
	rt := r.Rate("x.ops")
	rt.now = clk.now

	// 10 events per second for 5 seconds, then snapshot mid-second.
	for s := 0; s < 5; s++ {
		for i := 0; i < 10; i++ {
			rt.Inc()
		}
		clk.advance(time.Second)
	}
	clk.advance(500 * time.Millisecond)

	s := rt.Snapshot()
	if s.Total != 50 {
		t.Fatalf("total = %d, want 50", s.Total)
	}
	// The current second (age 0) is empty; the 1 s window sees only it.
	if s.Rate1s != 0 {
		t.Fatalf("rate1s = %g, want 0 (current second is idle)", s.Rate1s)
	}
	// 10 s window: 50 events over 9.5 elapsed seconds ≈ 5.26/s.
	if s.Rate10s < 5.0 || s.Rate10s > 5.5 {
		t.Fatalf("rate10s = %g, want ≈5.26", s.Rate10s)
	}
	// 60 s window: 50 events over 59.5 s ≈ 0.84/s.
	if s.Rate60s < 0.8 || s.Rate60s > 0.9 {
		t.Fatalf("rate60s = %g, want ≈0.84", s.Rate60s)
	}
	if s.EWMA <= 0 {
		t.Fatalf("ewma = %g, want > 0", s.EWMA)
	}
}

func TestRateCurrentSecondCounts(t *testing.T) {
	clk := newFakeClock()
	rt := newRate()
	rt.now = clk.now
	clk.advance(500 * time.Millisecond)
	rt.Add(5)
	s := rt.Snapshot()
	// 5 events in the half-elapsed current second → 10/s.
	if s.Rate1s < 9.9 || s.Rate1s > 10.1 {
		t.Fatalf("rate1s = %g, want 10", s.Rate1s)
	}
}

// TestRateAddSecUsesTheCallersSecond pins the disk hot path's clock budget:
// AddSec files the events under the second it is handed and never reads the
// clock itself; Add is AddSec at one clock read.
func TestRateAddSecUsesTheCallersSecond(t *testing.T) {
	clk := newFakeClock()
	rt := newRate()
	rt.now = clk.now

	stamp := clk.t.Add(500 * time.Millisecond)
	clk.advance(3 * time.Second) // the rate's own clock is 3 s ahead of stamp
	rt.AddSec(stamp.Unix(), 5)
	if clk.reads != 0 {
		t.Fatalf("AddSec read the clock %d times, want 0", clk.reads)
	}
	rt.Add(2)
	if clk.reads != 1 {
		t.Fatalf("Add read the clock %d times, want 1", clk.reads)
	}
	clk.advance(500 * time.Millisecond)
	s := rt.Snapshot()
	if s.Total != 7 {
		t.Fatalf("total = %d, want 7", s.Total)
	}
	// The current second holds Add's 2 events over its elapsed half; AddSec's 5
	// sit three buckets back, inside the 10 s window only.
	if s.Rate1s < 3.9 || s.Rate1s > 4.1 {
		t.Fatalf("rate1s = %g, want 4 (AddSec's events belong to stamp's second)", s.Rate1s)
	}
	if want := 7 / 9.5; s.Rate10s < want-0.01 || s.Rate10s > want+0.01 {
		t.Fatalf("rate10s = %g, want %g", s.Rate10s, want)
	}

	var nr *Rate
	nr.AddSec(stamp.Unix(), 1) // must not panic
	rt.AddSec(stamp.Unix(), 0)
	rt.AddSec(stamp.Unix(), -3)
	if got := rt.Snapshot().Total; got != 7 {
		t.Fatalf("total = %d after non-positive AddSec, want 7", got)
	}
}

func TestRateDecaysToZero(t *testing.T) {
	clk := newFakeClock()
	rt := newRate()
	rt.now = clk.now
	rt.Add(100)
	clk.advance(2 * time.Minute)
	s := rt.Snapshot()
	if s.Rate1s != 0 || s.Rate10s != 0 || s.Rate60s != 0 || s.EWMA != 0 {
		t.Fatalf("stale events still visible: %+v", s)
	}
	if s.Total != 100 {
		t.Fatalf("total = %d, want 100 (cumulative)", s.Total)
	}
}

func TestRateEWMAFavorsRecent(t *testing.T) {
	clk := newFakeClock()
	slow, fast := newRate(), newRate()
	slow.now, fast.now = clk.now, clk.now
	// Same total: slow spent it 50 s ago, fast spent it just now.
	slow.Add(100)
	clk.advance(50 * time.Second)
	fast.Add(100)
	clk.advance(500 * time.Millisecond)
	if s, f := slow.Snapshot().EWMA, fast.Snapshot().EWMA; f <= s {
		t.Fatalf("recent burst EWMA %g should exceed old burst EWMA %g", f, s)
	}
}

func TestRateIgnoresNonPositiveAndNil(t *testing.T) {
	var nr *Rate
	nr.Inc() // must not panic
	if s := nr.Snapshot(); s.Total != 0 {
		t.Fatalf("nil rate snapshot = %+v", s)
	}
	rt := newRate()
	rt.Add(0)
	rt.Add(-5)
	if got := rt.Snapshot().Total; got != 0 {
		t.Fatalf("total = %d, want 0", got)
	}
}

func TestRateGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Rate("x.rate") != r.Rate("x.rate") {
		t.Fatal("Rate is not get-or-create")
	}
	r.Rate("x.rate").Add(3)
	s := r.Snapshot()
	if s.Rates["x.rate"].Total != 3 {
		t.Fatalf("snapshot rates = %+v, want total 3", s.Rates)
	}
	// Nil registry falls back to the default.
	var nilReg *Registry
	nilReg.Rate("via.default_rate").Inc()
	if Default().Rate("via.default_rate").Snapshot().Total != 1 {
		t.Fatal("nil registry Rate should fall back to Default()")
	}
}

func TestRateConcurrent(t *testing.T) {
	rt := newRate()
	var wg sync.WaitGroup
	const workers, each = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rt.Inc()
				if i%100 == 0 {
					rt.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := rt.Snapshot().Total; got != workers*each {
		t.Fatalf("total = %d, want %d", got, workers*each)
	}
}

// TestRateConcurrentRollover has several goroutines walk the same run of
// seconds, so each second's first events race to turn its bucket over: no
// event may be lost to a bucket zeroed under it.
func TestRateConcurrentRollover(t *testing.T) {
	clk := newFakeClock()
	rt := newRate()
	rt.now = clk.now
	const workers, seconds, each = 8, 20, 200
	base := clk.t.Unix()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int64(0); s < seconds; s++ {
				for i := 0; i < each; i++ {
					rt.AddSec(base+s, 1)
				}
			}
		}()
	}
	wg.Wait()
	clk.advance((seconds-1)*time.Second + 500*time.Millisecond)
	s := rt.Snapshot()
	if s.Total != workers*seconds*each {
		t.Fatalf("total = %d, want %d", s.Total, workers*seconds*each)
	}
	if got, want := s.Rate60s*59.5, float64(workers*seconds*each); got < want-0.5 || got > want+0.5 {
		t.Fatalf("the 60 s window holds %.1f events, want %.0f", got, want)
	}
	if got, want := s.Rate1s*0.5, float64(workers*each); got < want-0.5 || got > want+0.5 {
		t.Fatalf("the last second holds %.1f events, want %.0f", got, want)
	}
}
