// Package ctxflow exercises the ctxflow analyzer: context-aware entry
// points must thread their ctx into the parallel engine, and library code
// must not manufacture contexts outside the serial-wrapper shape.
package ctxflow

import (
	"context"

	"code56/internal/parallel"
)

// EncodeContext threads its ctx into the fan-out; clean.
func EncodeContext(ctx context.Context, n int) error {
	return parallel.ForEach(ctx, n, func(int) error { return nil })
}

// Encode is the sanctioned serial compat wrapper: no ctx parameter, and
// Background passed directly as a call argument.
func Encode(n int) error {
	return EncodeContext(context.Background(), n)
}

// BatchContext covers ForEachBatch threading; clean.
func BatchContext(ctx context.Context, n int) error {
	return parallel.ForEachBatch(ctx, n, 4096, func(lo, hi int) error { return nil })
}

// DerivedContext threads a context derived from its ctx; clean.
func DerivedContext(ctx context.Context, n int) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return parallel.ForEach(cctx, n, func(int) error { return nil })
}

// closureThreading: a literal capturing the enclosing ctx threads it;
// clean.
func closureThreading(ctx context.Context, n int) func() error {
	return func() error {
		return parallel.ForEach(ctx, n, func(int) error { return nil })
	}
}

// ManufacturedForEach severs cancellation despite having a ctx.
func ManufacturedForEach(ctx context.Context, n int) error {
	return parallel.ForEach(context.Background(), n, func(int) error { return nil }) // want `manufactured context`
}

// rootCtx stands in for any unrelated stored context.
var rootCtx context.Context

// StaleContext threads a stored global instead of its own ctx.
func StaleContext(ctx context.Context, n int) error {
	return parallel.ForEach(rootCtx, n, func(int) error { return nil }) // want `does not thread this function's ctx`
}

// BatchStale covers ForEachBatch with an unthreaded first argument.
func BatchStale(ctx context.Context, n int) error {
	return parallel.ForEachBatch(rootCtx, n, 4096, func(lo, hi int) error { return nil }) // want `does not thread this function's ctx`
}

// closureManufactured: a literal under a ctx-bearing function makes its
// own root.
func closureManufactured(ctx context.Context, n int) func() error {
	return func() error {
		return parallel.ForEach(context.Background(), n, func(int) error { return nil }) // want `manufactured context`
	}
}

// todoCall: library code must never reach for context.TODO.
func todoCall(n int) error {
	return EncodeContext(context.TODO(), n) // want `must not call context.TODO`
}

// storedBackground manufactures a context and stores it instead of passing
// it onward; not the serial-wrapper shape.
func storedBackground() context.Context {
	ctx := context.Background() // want `stored instead of passed`
	return ctx
}

// backgroundWithCtx manufactures a root inside a function that already has
// a ctx in scope.
func backgroundWithCtx(ctx context.Context, pick func(a, b context.Context) context.Context) context.Context {
	return pick(ctx, context.Background()) // want `already has a ctx in scope`
}
