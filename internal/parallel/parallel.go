// Package parallel is the stripe engine's scheduling substrate: Pass, the one
// loop every bulk and background operation in this repository runs.
//
// Stripes of an array are independent — encode, scrub, rebuild and
// migration all read and write disjoint per-stripe block ranges — so each
// reduces to "run do(stripe) for stripes [from, n) on at most W workers, stop
// at the first error". Work is claimed from a shared counter rather than
// pre-partitioned, so a slow stripe (e.g. one needing reconstruction)
// doesn't leave its worker's whole shard waiting behind it.
//
// The one knob, WithWorkers, is re-exported by the public code56 facade, so
// one option reaches from the CLI flags down to this loop.
package parallel

import (
	"context"
	"runtime"
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
// goroutines and returns the first error: a Pass nobody pauses. The first
// failure (or ctx becoming done) stops further claims; workers finish their
// in-flight item and exit, so when ForEach returns no fn is still running.
// With one worker everything runs on the calling goroutine in index order:
// WithWorkers(1) is every bulk entry point's serial path.
func ForEach(ctx context.Context, n int64, fn func(i int64) error, opts ...Option) error {
	return ForEachBatch(ctx, n, 0, fn, opts...)
}

// ForEachBatch is ForEach with cache-aware claiming: a worker claims a run of
// contiguous indices sized so the run's data fits the batchBytes budget
// (itemBytes is the caller's per-item working-set size, e.g. one stripe's
// bytes). Per-stripe work items are small relative to scheduling cost —
// claiming them one by one bounces adjacent stripes between cores, which is
// what made tiny-stripe parallel sweeps collapse below 1x. Results and error
// semantics are ForEach's for any item size — cancellation and the first error
// take effect at the next item, not the next run; itemBytes <= 0 or an item
// larger than the budget degrades to per-item claiming.
func ForEachBatch(ctx context.Context, n, itemBytes int64, fn func(i int64) error, opts ...Option) error {
	p := Pass{n: n, batch: 1, workers: Resolve(opts...).Workers, do: fn}
	if itemBytes > 0 {
		p.batch = max(batchBytes/itemBytes, 1)
	}
	return p.Run(ctx)
}
