// Package ctxflow exercises the ctxflow analyzer: library code must not
// manufacture contexts outside the serial-wrapper shape.
package ctxflow

import "context"

// EncodeContext is a context-aware entry point.
func EncodeContext(ctx context.Context, n int) error { return ctx.Err() }

// Encode is the sanctioned serial compat wrapper: no ctx parameter, and
// Background passed directly as a call argument.
func Encode(n int) error {
	return EncodeContext(context.Background(), n)
}

// DerivedContext derives from its ctx; clean.
func DerivedContext(ctx context.Context, n int) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	return EncodeContext(cctx, n)
}

// healStripesDetached is the PR 3 heal shape: the repair runs on a fresh
// root, so cancelling the migration does not stop in-flight heals.
func healStripesDetached(ctx context.Context, stripes int) error {
	return EncodeContext(context.Background(), stripes) // want `already has a ctx in scope`
}

// closureManufactured: a literal under a ctx-bearing function makes its
// own root.
func closureManufactured(ctx context.Context, n int) func() error {
	return func() error {
		return EncodeContext(context.Background(), n) // want `already has a ctx in scope`
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
