package raid6

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"code56/internal/parallel"
	"code56/internal/telemetry"
)

// This file holds the array's context-aware bulk entry points. Stripes are
// independent — each occupies a disjoint block-address range on every disk —
// so bulk encode, scrub and rebuild fan per-stripe work out over
// internal/parallel's bounded pool. The pre-existing serial signatures
// (EncodeStripe per stripe, Scrub, Rebuild, RebuildParallel) remain as thin
// wrappers, so nothing that compiled against them changes.
//
// Fan-out is batched (parallel.ForEachBatch): workers claim runs of
// contiguous stripes sized to the BatchBytes cache budget instead of one
// stripe at a time, so each worker streams sequentially through disk
// addresses and the claim counter stops being a contention point for small
// stripes. parallel.WithBatchBytes adjusts the budget.

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
	err := parallel.ForEachBatch(ctx, stripes, a.stripeBytes(), func(st int64) error {
		return a.EncodeStripe(st)
	}, opts...)
	if err != nil {
		sp.End(telemetry.A("error", err.Error()))
		return err
	}
	sp.End()
	return nil
}

// EncodeStripesInterleavedContext is EncodeStripesContext with interleaved
// batches: each worker claims a contiguous stripe range
// (parallel.ForEachBatchRange), loads every stripe of the range, encodes
// them chain-by-chain across the whole batch (layout.Encoder's
// EncodeInterleaved), and writes parities column-by-column across the
// batch. Per-stripe encoding touches every chain of a stripe before moving
// on, so each covering disk is read at stride stripeBytes; interleaving
// keeps one chain's cover coordinates fixed while the stripe index
// advances, turning those reads — and the parity writes — into sequential
// streams per column. Results are bit-identical to EncodeStripesContext;
// the first failing stripe (or ctx cancellation) stops the operation.
func (a *Array) EncodeStripesInterleavedContext(ctx context.Context, stripes int64, opts ...parallel.Option) error {
	sp := a.tel.tr.StartSpan("raid6.encode_stripes_interleaved", telemetry.A("stripes", stripes))
	err := parallel.ForEachBatchRange(ctx, stripes, a.stripeBytes(), func(lo, hi int64) error {
		return a.encodeStripeRange(lo, hi)
	}, opts...)
	if err != nil {
		sp.End(telemetry.A("error", err.Error()))
		return err
	}
	sp.End()
	return nil
}

// encodeStripeRange loads stripes [lo, hi), encodes them interleaved, and
// writes their parities interleaved (chain outer, stripe inner — sequential
// addresses on each parity disk). Stripes and the batch slice come from the
// array's pools, so the steady-state path allocates nothing.
func (a *Array) encodeStripeRange(lo, hi int64) error {
	b := a.batches.Get().(*stripeBatch)
	defer func() {
		for _, s := range b.stripes {
			a.stripes.Put(s)
		}
		b.stripes = b.stripes[:0]
		a.batches.Put(b)
	}()
	for st := lo; st < hi; st++ {
		s, es, err := a.loadStripe(st)
		if err != nil {
			return err
		}
		if len(es) > 0 {
			a.stripes.Put(s)
			return fmt.Errorf("%w: cannot encode with failures present", ErrTooManyFailures)
		}
		b.stripes = append(b.stripes, s)
	}
	a.enc.EncodeInterleaved(b.stripes)
	n := hi - lo
	a.tel.stripeEncodes.Add(n)
	a.tel.xors.Add(a.encodeXORs * n)
	for _, ch := range a.chains {
		for i, s := range b.stripes {
			if err := a.writeCell(lo+int64(i), ch.Parity, s.Block(ch.Parity)); err != nil {
				return err
			}
			a.tel.parityUpdates.Inc()
		}
	}
	return nil
}

// RebuildContext reconstructs the contents of the given replaced disks
// across stripes [0, stripes), spreading independent stripes over the pool.
// The disks must have been Replace()d (accepting I/O, contents lost) before
// the call. The first failing stripe (or ctx cancellation) stops the
// rebuild; already-rebuilt stripes keep their restored contents, so a
// stopped rebuild can simply be re-run.
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
	err := parallel.ForEachBatch(ctx, stripes, a.stripeBytes(), func(st int64) error {
		if err := a.rebuildStripe(st, disks); err != nil {
			return err
		}
		a.tel.rebuilt.Add(int64(len(disks) * a.geom.Rows))
		return nil
	}, opts...)
	if err != nil {
		sp.End(telemetry.A("error", err.Error()))
		return err
	}
	sp.End(telemetry.A("blocks", stripes*int64(len(disks)*a.geom.Rows)))
	return nil
}

// ScrubContext verifies every stripe in [0, stripes) like Scrub, spreading
// independent stripes over the pool. The report's counters aggregate across
// stripes and Unrecoverable is sorted, so the result is identical to a
// serial scrub regardless of worker count. A disk-level I/O failure (or ctx
// cancellation) stops the pass and returns the partial report.
func (a *Array) ScrubContext(ctx context.Context, stripes int64, opts ...parallel.Option) (ScrubReport, error) {
	return a.ScrubContextMode(ctx, stripes, ScrubRepair, opts...)
}

// ScrubContextMode is ScrubContext with an explicit repair/check mode.
func (a *Array) ScrubContextMode(ctx context.Context, stripes int64, mode ScrubMode, opts ...parallel.Option) (ScrubReport, error) {
	rep := ScrubReport{Stripes: stripes}
	var mu sync.Mutex
	err := parallel.ForEachBatch(ctx, stripes, a.stripeBytes(), func(st int64) error {
		res, err := a.scrubStripe(st, mode == ScrubRepair)
		if err != nil {
			return err
		}
		mu.Lock()
		rep.add(st, res)
		mu.Unlock()
		return nil
	}, opts...)
	sort.Slice(rep.Unrecoverable, func(i, j int) bool {
		return rep.Unrecoverable[i] < rep.Unrecoverable[j]
	})
	return rep, err
}
