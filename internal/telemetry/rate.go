package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// rateBuckets is the size of a Rate's ring: one bucket per second, enough
// to cover the 60 s window plus the partially filled current second.
const rateBuckets = 64

// rateBucket counts the events of one unix second. Both words are atomic so
// that adding to the current second takes no lock; sec is written only under
// Rate.mu (by roll), n by every Add.
type rateBucket struct {
	sec atomic.Int64 // unix second this bucket counts, 0 when never used
	n   atomic.Int64
}

// Rate is a windowed event-rate instrument: a ring of per-second buckets
// from which 1 s / 10 s / 60 s rates and an exponentially weighted moving
// average are derived at snapshot time. Unlike a Counter (whose consumers
// must diff successive scrapes themselves), a Rate answers "how fast right
// now?" directly — it is what the live observability plane and the
// c56-migrate watch mode display for migration stripes/s and vdisk IOPS.
//
// Add is two atomic adds; only the first event of a new second takes mu, to
// turn the ring's oldest bucket over. Every disk of the process shares
// vdisk.io_rate, so a lock here would be the one lock all block I/O meets.
// The zero value is not usable; obtain instances from Registry.Rate.
type Rate struct {
	mu      sync.Mutex // serializes bucket rollover
	buckets [rateBuckets]rateBucket
	total   atomic.Int64
	// now is the clock, replaceable by tests for deterministic windows. It
	// is fixed at construction, so it needs no guard.
	now func() time.Time
}

func newRate() *Rate { return &Rate{now: time.Now} }

// Add records d events at the current time. Non-positive deltas are
// ignored (a rate counts occurrences, like a Counter).
//
//c56:noalloc
func (r *Rate) Add(d int64) {
	if r == nil || d <= 0 {
		return
	}
	r.AddSec(r.nowFunc()().Unix(), d)
}

// AddSec is Add for a caller that has just read the clock for its own
// purposes (a latency measurement's end time): the events are recorded in
// unix second sec and the clock is not read again.
//
//c56:noalloc
func (r *Rate) AddSec(sec, d int64) {
	if r == nil || d <= 0 {
		return
	}
	b := &r.buckets[sec%rateBuckets]
	if b.sec.Load() != sec {
		r.roll(b, sec)
	}
	b.n.Add(d)
	r.total.Add(d)
}

// roll hands bucket b to second sec. The count is zeroed before the second
// is published, so a reader that sees the new second sees only its events;
// one that still sees the old second may read a count of zero for it, but
// that second is rateBuckets old and outside every window. A second older
// than the bucket's (a caller 64 s late) is counted where it lands.
//
//c56:noalloc
func (r *Rate) roll(b *rateBucket, sec int64) {
	r.mu.Lock()
	if b.sec.Load() < sec {
		b.n.Store(0)
		b.sec.Store(sec)
	}
	r.mu.Unlock()
}

// Inc records one event.
//
//c56:noalloc
func (r *Rate) Inc() { r.Add(1) }

//c56:noalloc
func (r *Rate) nowFunc() func() time.Time {
	if r.now == nil {
		return time.Now
	}
	return r.now
}

// RateSnapshot is a point-in-time view of a Rate.
type RateSnapshot struct {
	// Total is the cumulative event count since the instrument was created.
	Total int64 `json:"total"`
	// Rate1s/Rate10s/Rate60s are events per second over the trailing 1, 10
	// and 60 second windows. Each window includes the current partial
	// second and is divided by the true elapsed window length, so the
	// values do not saw-tooth at second boundaries.
	Rate1s  float64 `json:"rate_1s"`
	Rate10s float64 `json:"rate_10s"`
	Rate60s float64 `json:"rate_60s"`
	// EWMA is an exponentially weighted per-second rate over the trailing
	// minute (time constant 10 s): a smoothed "current speed" that reacts
	// in seconds but does not jitter with individual bucket boundaries.
	EWMA float64 `json:"ewma"`
}

// ewmaTau is the EWMA time constant in seconds.
const ewmaTau = 10.0

// Snapshot derives the windowed rates from the ring.
func (r *Rate) Snapshot() RateSnapshot {
	if r == nil {
		return RateSnapshot{}
	}
	now := r.nowFunc()()
	nowSec := now.Unix()
	frac := now.Sub(now.Truncate(time.Second)).Seconds()

	s := RateSnapshot{Total: r.total.Load()}
	var sum1, sum10, sum60 int64
	var wSum float64
	for i := range r.buckets {
		// The second is read before its count: see roll.
		sec := r.buckets[i].sec.Load()
		n := r.buckets[i].n.Load()
		if sec == 0 {
			continue
		}
		age := nowSec - sec // 0 = current second
		if age < 0 || age >= 60 {
			continue
		}
		if age < 1 {
			sum1 += n
		}
		if age < 10 {
			sum10 += n
		}
		sum60 += n
		wSum += expNeg(float64(age)/ewmaTau) * float64(n)
	}

	// Each window spans its completed seconds plus the fraction of the
	// current one that has elapsed.
	s.Rate1s = float64(sum1) / maxf(frac, minWindow)
	s.Rate10s = float64(sum10) / (9 + maxf(frac, minWindow))
	s.Rate60s = float64(sum60) / (59 + maxf(frac, minWindow))
	// Normalizing by the full window's weight sum (not just the seconds
	// that saw events) makes the EWMA decay toward zero when events stop.
	s.EWMA = wSum / ewmaNorm
	return s
}

// minWindow bounds window divisors away from zero (a snapshot taken
// exactly on a second boundary would otherwise divide by ~0).
const minWindow = 0.1

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ewmaNorm is the EWMA normalizer: Σ exp(-age/τ) over the 60 s window.
var ewmaNorm = func() float64 {
	var n float64
	for age := 0; age < 60; age++ {
		n += expNeg(float64(age) / ewmaTau)
	}
	return n
}()

func expNeg(x float64) float64 { return math.Exp(-x) }
