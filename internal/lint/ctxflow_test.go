package lint

import (
	"testing"

	"code56/internal/lint/analysistest"
)

// TestCtxFlow covers ctx threading into ForEach/ForEachBatch
// (direct, derived and closure-captured), the serial-wrapper Background
// shape, manufactured/stale contexts, the context.TODO ban, the PR 3
// detached-heal regression, and the package-main exemption.
func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), CtxFlow,
		"ctxflow", "ctxflowmain")
}
