// Package parallel is the stripe engine's scheduling substrate: Pass, the one
// loop every bulk and background operation in this repository runs.
//
// Stripes of an array are independent — encode, scrub, rebuild and
// migration all read and write disjoint per-stripe block ranges — so each
// reduces to "run do over stripes [from, n) on at most W workers, stop at the
// first error". Work is claimed from a shared counter rather than
// pre-partitioned, so a slow stripe (e.g. one needing reconstruction) doesn't
// leave its worker's whole shard waiting behind it. A worker claims a run of
// contiguous items and hands do the whole run, so a pass over disks can read
// each disk's part of the run with one call; cancellation and the first error
// take effect at the next run boundary, not inside a run.
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

// MaxBatch caps a claimed run: a pass over an array holds its run's stripes
// at once, and they then take distinct locks of vdisk's 64 (StripeLock).
const MaxBatch = 64

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
// goroutines and returns the first error: a Pass nobody pauses, its runs one
// item. The first failure (or ctx becoming done) stops further claims;
// workers finish their in-flight item and exit, so when ForEach returns no fn
// is still running. With one worker everything runs on the calling goroutine
// in index order: WithWorkers(1) is every bulk entry point's serial path.
func ForEach(ctx context.Context, n int64, fn func(i int64) error, opts ...Option) error {
	return ForEachBatch(ctx, n, 0, func(i, _ int64) error { return fn(i) }, opts...)
}

// ForEachBatch is ForEach over runs: a worker claims the contiguous indices
// [lo, hi) whose data fits the batchBytes budget (itemBytes is the caller's
// per-item working-set size, e.g. one stripe's bytes), at most MaxBatch of
// them, and runs fn(lo, hi) once for the run. Per-stripe work items are small
// relative to scheduling cost — claiming them one by one bounces adjacent
// stripes between cores, which is what made tiny-stripe parallel sweeps
// collapse below 1x — and a run lets fn make one disk call where a stripe
// would make one each. Cancellation and the first error take effect at the
// next run boundary: fn decides what of its run it does after an error.
// itemBytes <= 0 or an item larger than the budget degrades to one-item runs.
func ForEachBatch(ctx context.Context, n, itemBytes int64, fn func(lo, hi int64) error, opts ...Option) error {
	p := Pass{n: n, batch: 1, workers: Resolve(opts...).Workers, do: fn}
	if itemBytes > 0 {
		p.batch = min(max(batchBytes/itemBytes, 1), MaxBatch)
	}
	return p.Run(ctx)
}
