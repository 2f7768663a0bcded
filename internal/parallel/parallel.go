// Package parallel is the stripe engine's scheduling substrate: a bounded
// worker pool with first-error cancellation and context support.
//
// Stripes of an array are independent — encode, scrub, rebuild and
// migration all read and write disjoint per-stripe block ranges — so every
// bulk operation in this repository reduces to "run f(stripe) for stripes
// [0, n) on at most W goroutines, stop at the first error". ForEach is that
// loop. Work is claimed from a shared atomic counter rather than
// pre-partitioned, so a slow stripe (e.g. one needing reconstruction)
// doesn't leave its worker's whole shard waiting behind it.
//
// The one knob, WithWorkers, is re-exported by the public code56 facade, so
// one option reaches from the CLI flags down to this pool.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// batchBytes is the per-claim byte budget of ForEachBatch: a worker takes as
// many contiguous items as fit in this budget before touching the shared
// claim counter again. Sized to a typical per-core L2 slice (1 MiB), so one
// batch's stripes stay cache-resident while a worker streams through them,
// and small enough that the tail imbalance between workers is bounded by one
// batch.
const batchBytes = 1 << 20

// Config is the resolved knob set of one bulk operation.
type Config struct {
	// Workers bounds the number of concurrently running goroutines.
	Workers int
}

// Option adjusts a Config. The zero Config resolves to GOMAXPROCS workers,
// so options are always optional.
type Option func(*Config)

// WithWorkers bounds the operation to n concurrent workers. n <= 0 selects
// GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// Resolve applies opts to the default Config. Nil options are ignored.
func Resolve(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// ForEach runs fn(i) for every i in [0, n) across at most Workers
// goroutines and returns the first error. The first failure (or ctx
// becoming done) stops further claims; workers finish their in-flight item
// and exit, so when ForEach returns no fn is still running. With one worker
// (or n <= 1) everything runs on the calling goroutine in index order:
// WithWorkers(1) is every bulk entry point's serial path.
func ForEach(ctx context.Context, n int64, fn func(i int64) error, opts ...Option) error {
	if n <= 0 {
		return ctx.Err()
	}
	cfg := Resolve(opts...)
	workers := cfg.Workers
	if int64(workers) > n {
		workers = int(n)
	}
	if workers <= 1 {
		for i := int64(0); i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// ForEachBatch is ForEach with cache-aware claiming: items are grouped into
// batches of contiguous indices sized so one batch's data fits the
// batchBytes budget (itemBytes is the caller's per-item working-set size,
// e.g. one stripe's bytes), and a worker claims a whole batch at a time.
// Per-stripe work items are small relative to scheduling cost — claiming
// them one by one thrashes the shared counter and bounces adjacent stripes
// between cores, which is what made tiny-stripe parallel sweeps collapse
// below 1x. Batching restores streaming access within each worker while
// keeping work stealing at batch granularity. Results and error semantics
// are identical to ForEach for any item size; itemBytes <= 0 or an item
// larger than the budget degrades to per-item claiming.
func ForEachBatch(ctx context.Context, n, itemBytes int64, fn func(i int64) error, opts ...Option) error {
	batch := int64(1)
	if itemBytes > 0 {
		batch = max(batchBytes/itemBytes, 1)
	}
	batches := (n + batch - 1) / batch
	return ForEach(ctx, batches, func(b int64) error {
		for i, hi := b*batch, min((b+1)*batch, n); i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}, opts...)
}
