package lint

import (
	"testing"

	"code56/internal/lint/analysistest"
)

// TestCtxFlow covers the serial-wrapper Background shape, contexts
// manufactured beside one in scope (directly and in a closure, the PR 3
// detached-heal shape), stored ones, the context.TODO ban, and the
// package-main exemption.
func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), CtxFlow,
		"ctxflow", "ctxflowmain")
}
