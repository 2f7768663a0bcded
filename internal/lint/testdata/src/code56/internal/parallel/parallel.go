// Package parallel stubs the stripe engine's context-aware entry points at
// their real import path, so the ctxflow analyzer's threading checks are
// exercised against the production signatures.
package parallel

import "context"

// Option configures a fan-out call.
type Option func()

// ForEach runs fn(i) for i in [0, n) under ctx.
func ForEach(ctx context.Context, n int, fn func(int) error, opts ...Option) error { return nil }

// ForEachBatch runs fn over cache-sized index ranges under ctx.
func ForEachBatch(ctx context.Context, n, itemBytes int, fn func(lo, hi int) error, opts ...Option) error {
	return nil
}
