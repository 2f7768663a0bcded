package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPassStops: a context cancelled before Run, and the first error, each end
// the pass at once, whatever the worker count, and are what Run returns.
func TestPassStops(t *testing.T) {
	boom, later := errors.New("boom"), errors.New("later")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name      string
		ctx       context.Context
		workers   int
		want      error
		wantCalls int64 // -1: any number short of n
	}{
		{"cancelled/1", cancelled, 1, context.Canceled, 0},
		{"cancelled/4", cancelled, 4, context.Canceled, 0},
		{"error/1", context.Background(), 1, boom, 6},
		{"error/4", context.Background(), 4, boom, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 1 << 40 // too long to run dry
			var calls atomic.Int64
			p := &Pass{n: n, batch: 1}
			p.do = func(i int64) error {
				calls.Add(1)
				if i == 5 {
					return boom
				}
				if i > 5 { // fail too, but only once boom is the pass's error
					for p.Report().Err == nil {
						runtime.Gosched()
					}
					return later
				}
				return nil
			}
			p.SetWorkers(tc.workers)
			if err := p.Run(tc.ctx); !errors.Is(err, tc.want) {
				t.Fatalf("Run = %v, want %v", err, tc.want)
			}
			if got := calls.Load(); tc.wantCalls >= 0 && got != tc.wantCalls {
				t.Errorf("do ran %d times, want %d", got, tc.wantCalls)
			}
			if rep := p.Report(); !errors.Is(rep.Err, tc.want) || rep.Workers != 0 {
				t.Errorf("report after Run: %+v", rep)
			}
		})
	}
}

// TestPassOneWorkerRunsInline: one worker is the calling goroutine, in index
// order — every bulk entry point's serial path.
func TestPassOneWorkerRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int64
	p := NewPass(100, func(i int64) error {
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("item %d: %d goroutines, %d before Run", i, g, before)
		}
		order = append(order, i) // no lock: there is nobody else
		return nil
	}, nil)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("item %d ran in place %d", got, i)
		}
	}
	if len(order) != 100 {
		t.Fatalf("%d items ran, want 100", len(order))
	}
}

// TestPassWatermarkIsContiguous: four workers finish out of order — item 0
// last — and the watermark stays below the gap until it closes.
func TestPassWatermarkIsContiguous(t *testing.T) {
	const n = 4
	release := make(chan struct{})
	var early atomic.Int64
	var p *Pass
	p = NewPass(n, func(i int64) error {
		if i == 0 {
			<-release
		}
		p.Mark(i)
		return nil
	}, func(watermark int64) error {
		select {
		case <-release:
			if watermark != n {
				t.Errorf("watermark %d after the gap closed, want %d", watermark, n)
			}
		default:
			if watermark != 0 {
				t.Errorf("watermark %d with item 0 still running", watermark)
			}
			if early.Add(1) == n-1 {
				close(release)
			}
		}
		return nil
	})
	p.SetWorkers(4)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep := p.Report(); rep.Done != n || rep.Ran != n {
		t.Errorf("report %+v, want %d done and ran", rep, n)
	}
}

// TestPassResumeFrom: items below the resume point are done and not run, and
// the rate is that of the items this Run completed, not of the watermark.
func TestPassResumeFrom(t *testing.T) {
	var ran []int64
	var p *Pass
	p = NewPass(1000, func(i int64) error {
		ran = append(ran, i)
		p.Mark(i)
		return nil
	}, nil)
	p.ResumeFrom(996)
	if rep := p.Report(); rep.Done != 996 || !p.Done(995) || p.Done(996) {
		t.Fatalf("before Run: report %+v, bit 995 %v, bit 996 %v", rep, p.Done(995), p.Done(996))
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 4 || ran[0] != 996 || ran[3] != 999 {
		t.Fatalf("ran %v, want 996..999", ran)
	}
	rep := p.Report()
	if rep.Done != 1000 || rep.Ran != 4 || rep.ETA != 0 {
		t.Fatalf("report %+v, want 1000 done, 4 ran, no ETA", rep)
	}
	if want := 4 / rep.Elapsed.Seconds(); rep.PerSec > want*1.01 {
		t.Errorf("rate %.0f/s over %v, want the 4 items of this run: %.0f/s", rep.PerSec, rep.Elapsed, want)
	}
}

// TestPassPauseAndThrottle: Pause returns only once every worker is parked —
// between items, or cut out of an hour's throttle sleep — and nothing runs
// until Resume; a shorter throttle set while workers sleep out a longer one
// wakes them.
func TestPassPauseAndThrottle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		throttle time.Duration
	}{
		{"busy", 0},
		{"asleep", time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, workers = 1 << 20, 4 // ended by cancel, not by running dry
			var inDo, started atomic.Int64
			finished := make(chan struct{}, workers)
			p := NewPass(n, func(i int64) error {
				inDo.Add(1)
				started.Add(1)
				runtime.Gosched()
				inDo.Add(-1)
				return nil
			}, func(int64) error {
				select {
				case finished <- struct{}{}:
				default:
				}
				return nil
			})
			p.SetWorkers(workers)
			p.SetThrottle(tc.throttle)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.Run(ctx); !errors.Is(err, context.Canceled) {
					t.Errorf("Run = %v, want context.Canceled", err)
				}
			}()
			for w := 0; w < workers; w++ {
				<-finished // asleep: every worker is in, or about to enter, its sleep
			}
			p.Pause()
			rep, at := p.Report(), started.Load()
			if rep.Workers != workers || rep.Parked != workers || !rep.Paused {
				t.Errorf("Pause returned with %d of %d workers parked", rep.Parked, rep.Workers)
			}
			if in := inDo.Load(); in != 0 {
				t.Errorf("Pause returned with %d items in flight", in)
			}
			runtime.Gosched()
			if now := started.Load(); now != at {
				t.Errorf("%d items started under the pause", now-at)
			}
			p.Resume()
			p.SetThrottle(time.Microsecond) // the hour, if any, is not slept out
			for started.Load() < at+4*workers {
				runtime.Gosched()
			}
			cancel()
			wg.Wait()
			if rep := p.Report(); rep.Workers != 0 || rep.Throttle != time.Microsecond || rep.Ran >= n {
				t.Errorf("report after the cancel: %+v", rep)
			}
		})
	}
}

// TestPassBitsAllocationFree is the runtime half of Mark's and Done's
// //c56:noalloc: the migrator's write path reads the bit on every write.
func TestPassBitsAllocationFree(t *testing.T) {
	p := NewPass(128, nil, nil)
	if n := testing.AllocsPerRun(100, func() {
		p.Mark(70)
		if !p.Done(70) || p.Done(71) {
			t.Fatal("item 70's bit is not the one set")
		}
	}); n != 0 {
		t.Errorf("Mark and Done allocate %.1f times, want 0", n)
	}
}
