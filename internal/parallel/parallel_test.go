package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolveDefaults(t *testing.T) {
	c := Resolve()
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS %d", c.Workers, runtime.GOMAXPROCS(0))
	}
	c = Resolve(WithWorkers(3), nil)
	if c.Workers != 3 {
		t.Errorf("Resolve(WithWorkers(3)) = %+v", c)
	}
	c = Resolve(WithWorkers(-1))
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("non-positive options should fall back to defaults, got %+v", c)
	}
}

// The batch is batchBytes/itemBytes items, so the tests steer it through
// itemBytes.
func TestForEachBatchCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		workers   int
		itemBytes int64
	}{
		{1, batchBytes / 64}, // serial, 64 items per batch
		{4, batchBytes / 64}, // parallel, 64 items per batch
		{4, 2 * batchBytes},  // item bigger than budget: per-item claims
		{4, 0},               // unknown item size: per-item claims
		{16, 12052},          // 87 items per batch: the tail batch is short
	} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEachBatch(context.Background(), n, tc.itemBytes, func(i int64) error {
			hits[i].Add(1)
			return nil
		}, WithWorkers(tc.workers))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("%+v: index %d ran %d times", tc, i, got)
			}
		}
	}
}

func TestForEachBatchStopsOnError(t *testing.T) {
	sentinel := errors.New("boom")
	var ran atomic.Int64
	err := ForEachBatch(context.Background(), 1000, batchBytes/64, func(i int64) error {
		ran.Add(1)
		if i == 100 {
			return sentinel
		}
		return nil
	}, WithWorkers(1))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Serial execution claims batches in order, so nothing past the failing
	// index runs.
	if got := ran.Load(); got != 101 {
		t.Fatalf("ran %d items before stopping, want 101", got)
	}
}

func TestForEachBatchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachBatch(ctx, 1000, 1024, func(i int64) error {
		t.Error("fn ran under a cancelled context")
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := ForEachBatch(context.Background(), 0, 1024, func(i int64) error {
		t.Error("fn ran for an empty index space")
		return nil
	}); err != nil {
		t.Fatalf("n=0: err = %v, want nil", err)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), n, func(i int64) error {
			hits[i].Add(1)
			return nil
		}, WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEach(context.Background(), 200, func(i int64) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	}, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent workers, bound is %d", p, workers)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	// The loop is too long to run dry (2^40 items), so ForEach can return
	// only because every worker saw the stop flag. To know it was seen across
	// workers, item 5 fails only once each of the other three workers is
	// parked inside an item past it; they are let go as it fails, and keep
	// claiming items until the cancellation reaches them. A cancellation that
	// does not propagate shows as this test timing out.
	const workers = 4
	var (
		parked  atomic.Int64
		allIn   = make(chan struct{})
		release = make(chan struct{})
	)
	err := ForEach(context.Background(), 1<<40, func(i int64) error {
		switch {
		case i == 5:
			<-allIn
			close(release)
			return boom
		case i > 5:
			select {
			case <-release: // the failure is out: run through
			default:
				if parked.Add(1) == workers-1 {
					close(allIn)
				}
				<-release
			}
		}
		return nil
	}, WithWorkers(workers))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if p := parked.Load(); p != workers-1 {
		t.Errorf("%d workers were in flight when the error was returned, want %d", p, workers-1)
	}

	// Serial path: error stops immediately.
	var ran int64
	err = ForEach(context.Background(), 100, func(i int64) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	}, WithWorkers(1))
	if !errors.Is(err, boom) || ran != 4 {
		t.Errorf("serial: err=%v ran=%d, want boom after 4 items", err, ran)
	}
}

func TestForEachHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	err := ForEach(ctx, 1_000_000, func(i int64) error {
		ran.Add(1)
		once.Do(cancel)
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r := ran.Load(); r >= 1_000_000 {
		t.Error("cancellation did not stop the loop")
	}

	// Already-cancelled context: nothing runs, even serially.
	err = ForEach(ctx, 10, func(i int64) error { t.Error("fn ran"); return nil }, WithWorkers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	// n <= 0 is a no-op that still reports cancellation state.
	if err := ForEach(context.Background(), 0, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}
