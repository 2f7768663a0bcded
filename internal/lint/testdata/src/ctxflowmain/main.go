// Command ctxflowmain exercises the package-main exemption: binaries own
// their root context, so Background is legal anywhere here.
package main

import "context"

func main() {
	ctx := context.Background()
	_ = run(ctx)
	_ = run(context.Background())
}

func run(ctx context.Context) error { return rootOf().Err() }

func rootOf() context.Context { return context.Background() }
