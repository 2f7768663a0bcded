// Package main reads counters other packages own, by name, the way the
// repository benchmark reads migrate.conversion_xors: a lookup claims
// nothing, so analyzing this package first must not turn the owner's
// registration (package metricname, next in the run) into a duplicate.
package main

import "code56/internal/telemetry"

func main() {
	reg := telemetry.NewRegistry()
	_ = reg.Counter("metricname.reads").Value()
	_ = reg.Counter("metricname.write_errors").Value()

	// A program's own instruments still follow the convention.
	reg.Counter("main.BadCase").Inc() // want `does not match the pkg.snake_case convention`
}
