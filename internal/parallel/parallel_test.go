package parallel

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"code56/internal/xorblk"
)

func TestResolveDefaults(t *testing.T) {
	c := Resolve()
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS %d", c.Workers, runtime.GOMAXPROCS(0))
	}
	if c.ChunkSize != DefaultChunkSize {
		t.Errorf("default ChunkSize = %d, want %d", c.ChunkSize, DefaultChunkSize)
	}
	c = Resolve(WithWorkers(3), WithChunkSize(512), nil)
	if c.Workers != 3 || c.ChunkSize != 512 {
		t.Errorf("Resolve(WithWorkers(3), WithChunkSize(512)) = %+v", c)
	}
	c = Resolve(WithWorkers(-1), WithChunkSize(0))
	if c.Workers != runtime.GOMAXPROCS(0) || c.ChunkSize != DefaultChunkSize {
		t.Errorf("non-positive options should fall back to defaults, got %+v", c)
	}
	if c.BatchBytes != DefaultBatchBytes {
		t.Errorf("default BatchBytes = %d, want %d", c.BatchBytes, DefaultBatchBytes)
	}
	c = Resolve(WithBatchBytes(4096))
	if c.BatchBytes != 4096 {
		t.Errorf("WithBatchBytes(4096) = %+v", c)
	}
}

func TestForEachBatchCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		workers   int
		itemBytes int64
		batch     int
	}{
		{1, 1024, 64},         // serial, many items per batch
		{4, 1024, 64},         // parallel, many items per batch
		{4, 1 << 21, 1 << 20}, // item bigger than budget: per-item claims
		{4, 0, 0},             // unknown item size: per-item claims
		{16, 3000, 1 << 18},   // non-dividing sizes exercise the tail batch
	} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEachBatch(context.Background(), n, tc.itemBytes, func(i int64) error {
			hits[i].Add(1)
			return nil
		}, WithWorkers(tc.workers), WithBatchBytes(tc.batch))
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
	err := ForEachBatch(context.Background(), 1000, 1024, func(i int64) error {
		ran.Add(1)
		if i == 100 {
			return sentinel
		}
		return nil
	}, WithWorkers(1), WithBatchBytes(64*1024))
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
}

func TestForEachBatchRangeCoversEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct {
		workers   int
		itemBytes int64
		batch     int
		wantSpan  int64 // expected hi-lo of every non-tail range
	}{
		{1, 1024, 64 * 1024, 64},
		{4, 1024, 64 * 1024, 64},
		{4, 1 << 21, 1 << 20, 1}, // item bigger than budget: single-item ranges
		{4, 0, 0, 1},             // unknown item size: single-item ranges
		{8, 3000, 1 << 18, 87},   // non-dividing sizes exercise the tail range
	} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEachBatchRange(context.Background(), n, tc.itemBytes, func(lo, hi int64) error {
			if lo >= hi || hi > n {
				t.Errorf("%+v: bad range [%d, %d)", tc, lo, hi)
			}
			if span := hi - lo; span != tc.wantSpan && hi != n {
				t.Errorf("%+v: range [%d, %d) has span %d, want %d", tc, lo, hi, span, tc.wantSpan)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
			return nil
		}, WithWorkers(tc.workers), WithBatchBytes(tc.batch))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("%+v: index %d covered %d times", tc, i, got)
			}
		}
	}
}

func TestForEachBatchRangeStopsOnError(t *testing.T) {
	sentinel := errors.New("boom")
	var ranges atomic.Int64
	err := ForEachBatchRange(context.Background(), 1000, 1024, func(lo, hi int64) error {
		ranges.Add(1)
		if lo >= 128 {
			return sentinel
		}
		return nil
	}, WithWorkers(1), WithBatchBytes(64*1024))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Serial execution claims ranges in order: [0,64), [64,128), [128,192)
	// fails — nothing past it runs.
	if got := ranges.Load(); got != 3 {
		t.Fatalf("ran %d ranges before stopping, want 3", got)
	}
}

func TestForEachBatchRangeHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachBatchRange(ctx, 1000, 1024, func(lo, hi int64) error {
		t.Error("fn ran under a cancelled context")
		return nil
	}, WithWorkers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := ForEachBatchRange(context.Background(), 0, 1024, func(lo, hi int64) error {
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

func TestXorMultiChunkedMatchesKernel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 100, 4096, 200_000, 1<<20 + 37} {
		srcs := make([][]byte, 6)
		for i := range srcs {
			srcs[i] = make([]byte, n)
			r.Read(srcs[i])
		}
		want := make([]byte, n)
		xorblk.XorMulti(want, srcs...)
		got := make([]byte, n)
		ops, err := XorMulti(context.Background(), got, srcs,
			WithWorkers(4), WithChunkSize(4096))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: chunked XorMulti diverges from kernel", n)
		}
		if ops != len(srcs)-1 {
			t.Errorf("n=%d: ops = %d, want %d", n, ops, len(srcs)-1)
		}
	}
}

func TestXorMultiChunkedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]byte, 1<<20)
	if _, err := XorMulti(ctx, dst, [][]byte{make([]byte, 1<<20)},
		WithWorkers(2), WithChunkSize(1024)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
