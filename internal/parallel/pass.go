package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Pass is one walk over the items [from, n): at most W workers claim runs of
// batch contiguous items from one counter and run do once a run; the first
// error (or ctx becoming done) stops further claims. A pass that runs in the
// background beside other work — the online conversion, whose runs are one
// item — is paced and held from outside: SetThrottle is slept between a
// worker's runs, Pause parks the workers, and both, like cancellation and a
// failure, take effect at the next run boundary, cutting any throttle sleep
// short.
//
// A pass made by NewPass also keeps one bit an item, which do sets (Mark)
// while it still holds whatever excludes the item's other users, so that Done
// read under the same exclusion is exact; the watermark, the number of leading
// items done, is a scan of the bits.
type Pass struct {
	n, batch int64 // batch: the contiguous items a worker claims at a time
	do       func(lo, hi int64) error
	// after, if set, is called without the lock after each run that
	// succeeded, with the watermark as of that run; its error fails the pass.
	after func(watermark int64) error
	bits  []atomic.Uint64

	mu sync.Mutex
	// workers is how many workers Run starts and, once it has, how many are
	// still running; parked of them wait out a Pause.
	workers, parked int           //c56:guardedby mu
	paused          bool          //c56:guardedby mu
	throttle        time.Duration //c56:guardedby mu
	// next is the first unclaimed item, mark the watermark, ran the items
	// this Run completed.
	next, mark, ran int64     //c56:guardedby mu
	err             error     //c56:guardedby mu
	began, ended    time.Time //c56:guardedby mu
	// wake is what everything that waits waits on: made by the first waiter,
	// closed by the next change of the state above.
	wake chan struct{} //c56:guardedby mu
}

// NewPass returns a pass over [0, n) whose runs are one item, with one
// worker, the item bits and the watermark. after may be nil.
func NewPass(n int64, do func(i int64) error, after func(watermark int64) error) *Pass {
	return &Pass{n: n, batch: 1, workers: 1, do: func(i, _ int64) error { return do(i) }, after: after,
		bits: make([]atomic.Uint64, (n+63)/64)}
}

// SetWorkers sets how many workers Run starts. Call before Run.
func (p *Pass) SetWorkers(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.workers = k
}

// ResumeFrom makes Run start at item from, in [0, n], with every item below
// it done. Call before Run.
func (p *Pass) ResumeFrom(from int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := int64(0); i < from; i++ {
		p.Mark(i)
	}
	p.next, p.mark = from, from
}

// Mark sets item i's bit. (Go 1.22 has no atomic Or.)
//
//c56:noalloc
func (p *Pass) Mark(i int64) {
	w, bit := &p.bits[i/64], uint64(1)<<(i%64)
	for old := w.Load(); old&bit == 0 && !w.CompareAndSwap(old, old|bit); old = w.Load() {
	}
}

// Done reports item i's bit.
//
//c56:noalloc
func (p *Pass) Done(i int64) bool { return p.bits[i/64].Load()>>(i%64)&1 != 0 }

// SetThrottle makes each worker sleep d between runs (zero or less: none).
// Safe while the pass runs: workers sleeping out the old interval are woken
// and pace their next runs by the new one.
func (p *Pass) SetThrottle(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d = max(d, 0); d != p.throttle {
		p.throttle = d
		p.broadcast()
	}
}

// Pause stops the workers at their next run boundaries and returns once every
// one is parked (or gone, or a Resume overtook it).
func (p *Pass) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused = true
	p.broadcast()
	for p.paused && !p.began.IsZero() && p.parked < p.workers {
		p.wait(nil, nil)
	}
}

// Resume releases a Pause.
func (p *Pass) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused = false
	p.broadcast()
}

// Fail makes err the pass's error unless it has one, and stops the workers.
func (p *Pass) Fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fail(err)
}

//c56:requires mu
func (p *Pass) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.broadcast()
}

//c56:requires mu
func (p *Pass) broadcast() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
}

// wait gives up the lock until the next broadcast, or done, or timer.
//
//c56:requires mu
func (p *Pass) wait(done <-chan struct{}, timer <-chan time.Time) {
	if p.wake == nil {
		p.wake = make(chan struct{})
	}
	wake := p.wake
	p.mu.Unlock()
	select {
	case <-wake:
	case <-done:
	case <-timer:
	}
	p.mu.Lock()
}

// Run walks the pass and returns its first error, ctx's if that came first;
// when it returns no do is running. The calling goroutine is one of the
// workers: a pass of one worker starts none and runs its runs in index order.
func (p *Pass) Run(ctx context.Context) error {
	p.mu.Lock()
	claims := (p.n - p.next + p.batch - 1) / p.batch
	workers := int(max(min(int64(p.workers), claims), 1))
	p.workers, p.began = workers, time.Now()
	p.mu.Unlock()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(ctx)
		}()
	}
	p.work(ctx)
	wg.Wait()
	return p.Report().Err
}

// work is one worker: at each run boundary it parks while the pass is paused,
// leaves if the pass failed, ctx is done or nothing is left, and claims.
func (p *Pass) work(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.paused && p.err == nil {
			p.parked++
			p.broadcast() // Pause counts the parked
			for p.paused && p.err == nil && ctx.Err() == nil {
				p.wait(ctx.Done(), nil)
			}
			p.parked--
		}
		if err := ctx.Err(); err != nil {
			p.fail(err)
		}
		lo, hi := p.next, min(p.next+p.batch, p.n) // the claimed run
		if p.err != nil || lo >= hi {
			break
		}
		p.next = hi
		p.mu.Unlock()
		err := p.do(lo, hi)
		p.mu.Lock()
		if err == nil {
			p.ran += hi - lo
			for p.bits != nil && p.mark < p.n && p.Done(p.mark) {
				p.mark++
			}
			if p.after != nil {
				mark := p.mark
				p.mu.Unlock()
				err = p.after(mark)
				p.mu.Lock()
			}
		}
		if err != nil {
			p.fail(err)
		} else if p.throttle > 0 && !p.paused && p.err == nil {
			t := time.NewTimer(p.throttle)
			p.wait(ctx.Done(), t.C)
			t.Stop()
		}
	}
	if p.workers--; p.workers == 0 {
		p.ended = time.Now()
	}
	p.broadcast()
}

// Report is a point-in-time view of a pass.
type Report struct {
	// Done is the watermark, Total the pass's n, Ran the items this Run
	// completed (a resumed pass's Done counts the ones before it too).
	Done, Total, Ran int64
	// Workers is how many workers Run starts or, once it has, are still
	// running; Parked of them are waiting out a Pause.
	Workers, Parked int
	Paused          bool
	Throttle        time.Duration
	Err             error
	// Elapsed is the time since Run began, frozen when its last worker left;
	// PerSec the mean rate of this Run and ETA the rest of the pass at it
	// (zero while unknown).
	Elapsed time.Duration
	PerSec  float64
	ETA     time.Duration
}

// Report returns the pass's state as of one instant.
func (p *Pass) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := Report{Done: p.mark, Total: p.n, Ran: p.ran, Workers: p.workers, Parked: p.parked,
		Paused: p.paused, Throttle: p.throttle, Err: p.err}
	switch {
	case p.began.IsZero():
		return r
	case p.ended.IsZero():
		r.Elapsed = time.Since(p.began)
	default:
		r.Elapsed = p.ended.Sub(p.began)
	}
	if secs := r.Elapsed.Seconds(); secs > 0 && r.Ran > 0 {
		r.PerSec = float64(r.Ran) / secs
		r.ETA = time.Duration(float64(r.Total-r.Done) / r.PerSec * float64(time.Second))
	}
	return r
}
