package lint

import (
	"testing"

	"code56/internal/lint/analysistest"
)

// TestMetricName covers constant-ness, the pkg.snake_case convention, the
// package-prefix rule, the PerInstance seam's prefix/suffix shapes, and
// cross-package duplicate detection (two packages named metricname at
// different import paths registering the same name) — and that a program
// looking up another package's counter, analyzed before its owner, claims
// nothing.
func TestMetricName(t *testing.T) {
	ResetMetricState()
	t.Cleanup(ResetMetricState)
	analysistest.Run(t, analysistest.TestData(), MetricName,
		"metricname/lookup", "metricname", "dup/metricname", "obs", "trace")
}
