package raid6

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"code56/internal/parallel"
	"code56/internal/telemetry"
)

// This file holds the array's bulk entry points: EncodeStripesContext,
// RebuildContext and ScrubContextMode. Stripes are independent — each
// occupies a disjoint block-address range on every disk — so each fans
// per-stripe work out over internal/parallel's bounded pool;
// parallel.WithWorkers(1) is the serial, in-order path.
//
// Fan-out is batched (parallel.ForEachBatch): workers claim runs of
// contiguous stripes sized to a 1 MiB cache budget instead of one stripe at
// a time, so each worker streams sequentially through disk addresses and the
// claim counter stops being a contention point for small stripes. Rebuild and
// scrub hold and fold a claimed run at once: it is their unit of cancellation.

// stripeBytes is the byte footprint of one stripe across all columns — the
// per-item size batched bulk loops hand to parallel.ForEachBatch.
func (a *Array) stripeBytes() int64 {
	return int64(a.geom.Elements()) * int64(a.blockSize)
}

// EncodeStripesContext recomputes and writes the parities of every stripe
// in [0, stripes) — bulk full-stripe parity generation, e.g. after loading
// raw data onto an array. Work is spread over the pool per
// parallel.WithWorkers; the first failing stripe (or ctx cancellation)
// stops the operation.
func (a *Array) EncodeStripesContext(ctx context.Context, stripes int64, opts ...parallel.Option) error {
	sp := a.tel.tr.StartSpan("raid6.encode_stripes", telemetry.A("stripes", stripes))
	err := parallel.ForEachBatch(ctx, stripes, a.stripeBytes(), func(lo, hi int64) error {
		for st := lo; st < hi; st++ {
			if err := a.EncodeStripe(st); err != nil {
				return err
			}
		}
		return nil
	}, opts...)
	if err != nil {
		sp.End(telemetry.A("error", err.Error()))
		return err
	}
	sp.End()
	return nil
}

// RebuildContext reconstructs the contents of the given replaced disks
// across stripes [0, stripes), spreading independent stripes over the pool.
// The disks must have been Replace()d (accepting I/O, contents lost) before
// the call. Disk indices are physical; with rotation enabled each disk
// serves a different logical column per stripe. The first failing stripe (or
// ctx cancellation) stops the rebuild; already-rebuilt stripes keep their
// restored contents, so a stopped rebuild can simply be re-run.
func (a *Array) RebuildContext(ctx context.Context, stripes int64, disks []int, opts ...parallel.Option) error {
	if len(disks) > a.code.FaultTolerance() {
		return fmt.Errorf("%w: %d disks", ErrTooManyFailures, len(disks))
	}
	// Checked once, here: a bad index met inside a pool worker would panic
	// in a goroutine no caller can recover.
	for i, d := range disks {
		if d < 0 || d >= a.geom.Cols {
			return fmt.Errorf("raid6: rebuild of disk %d, want an index in [0, %d)", d, a.geom.Cols)
		}
		for _, e := range disks[:i] {
			if e == d {
				return fmt.Errorf("raid6: rebuild lists disk %d twice", d)
			}
		}
	}
	sp := a.tel.tr.StartSpan("raid6.rebuild",
		telemetry.A("disks", fmt.Sprint(disks)), telemetry.A("stripes", stripes))
	err := parallel.ForEachBatch(ctx, stripes, a.stripeBytes(), func(lo, hi int64) error {
		if err := a.rebuildDisks(lo, hi, disks); err != nil {
			return err
		}
		a.tel.rebuilt.Add((hi - lo) * int64(len(disks)*a.geom.Rows))
		return nil
	}, opts...)
	if err != nil {
		sp.End(telemetry.A("error", err.Error()))
		return err
	}
	sp.End(telemetry.A("blocks", stripes*int64(len(disks)*a.geom.Rows)))
	return nil
}

// ScrubContextMode verifies every stripe in [0, stripes), spreading
// independent stripes over the pool: latent sector errors are rebuilt from
// redundancy and silent single-block corruptions are located by intersecting
// the failing parity chains — and rewritten under ScrubRepair, only counted
// under ScrubCheck. A stripe whose corruption cannot be pinned to one block
// is reported unrecoverable (RAID-6 syndromes cannot always distinguish
// multi-block corruption). The report's counters aggregate across stripes
// and Unrecoverable is sorted, so the result does not depend on the worker
// count. A disk-level I/O failure (or ctx cancellation) stops the pass and
// returns the partial report.
func (a *Array) ScrubContextMode(ctx context.Context, stripes int64, mode ScrubMode, opts ...parallel.Option) (ScrubReport, error) {
	rep := ScrubReport{Stripes: stripes}
	check := a.dec.Syndromes()
	var mu sync.Mutex
	err := parallel.ForEachBatch(ctx, stripes, a.stripeBytes(), func(lo, hi int64) error {
		return a.scrubRun(lo, hi, mode == ScrubRepair, check, &rep, &mu)
	}, opts...)
	sort.Slice(rep.Unrecoverable, func(i, j int) bool {
		return rep.Unrecoverable[i] < rep.Unrecoverable[j]
	})
	return rep, err
}
