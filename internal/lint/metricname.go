package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"
	"sync"

	"code56/internal/lint/analysis"
)

// MetricName enforces the telemetry naming convention.
//
// Dashboards, the README metric reference and cross-run comparisons all
// key on literal metric names; a name computed at runtime or drifted
// between packages breaks them silently (the registry happily get-or-
// creates whatever string it is handed). The rules:
//
//   - the name argument of Registry.Counter/Gauge/Histogram/Rate, the prefix
//     argument of Registry.PerInstance and the suffix arguments of the
//     Instanced instrument methods must be compile-time constant strings
//     (literals, consts, or concatenations thereof);
//   - full names and PerInstance prefixes follow pkg.snake_case: two or
//     more dot-separated snake_case segments, the first being the
//     registering package's name (per-instance suffixes are a single
//     snake_case segment — the dynamic instance id supplies the middle);
//   - a full name may be registered from only one package: the same
//     constant appearing in two packages is reported at both sites. A main
//     package asking for a name under another package's prefix is reading
//     that package's instrument, not registering one.
//
// Truly dynamic identities (one gauge per disk) belong in the id argument
// of Registry.PerInstance, which is the one sanctioned seam for runtime
// strings in a metric name.
//
// The internal/telemetry package itself is exempt (it implements the
// seam), as are test files (the driver never analyzes them).
var MetricName = &analysis.Analyzer{
	Name: "metricname",
	Doc: "require telemetry metric names to be pkg.snake_case compile-time " +
		"constants with no duplicate registrations across packages",
	Run: runMetricName,
}

var (
	fullNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)
	segmentRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// metricSeen records, per metric name, the package that first registered
// it, for cross-package duplicate detection. The driver runs packages in a
// deterministic order within one process; ResetMetricState isolates test
// runs.
var (
	metricMu   sync.Mutex
	metricSeen = map[string]string{} // name -> package path
)

// ResetMetricState clears the cross-package duplicate-registration state.
// Tests call it between fixture runs.
func ResetMetricState() {
	metricMu.Lock()
	defer metricMu.Unlock()
	metricSeen = map[string]string{}
}

func runMetricName(pass *analysis.Pass) error {
	if pass.Pkg.Path() == telemetryPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			info := pass.TypesInfo
			switch {
			case methodOn(info, call, telemetryPath, "Registry", "Counter"),
				methodOn(info, call, telemetryPath, "Registry", "Gauge"),
				methodOn(info, call, telemetryPath, "Registry", "Histogram"),
				methodOn(info, call, telemetryPath, "Registry", "Rate"):
				checkMetricArg(pass, call.Args[0], fullName)
			case methodOn(info, call, telemetryPath, "Registry", "PerInstance"):
				checkMetricArg(pass, call.Args[0], namePrefix)
			case methodOn(info, call, telemetryPath, "Instanced", "Counter"),
				methodOn(info, call, telemetryPath, "Instanced", "Gauge"),
				methodOn(info, call, telemetryPath, "Instanced", "Histogram"):
				checkMetricArg(pass, call.Args[0], nameSuffix)
			}
			return true
		})
	}
	return nil
}

// nameKind distinguishes what shape a constant metric-name argument must
// have.
type nameKind int

const (
	fullName   nameKind = iota // pkg.snake_case, duplicate-checked
	namePrefix                 // pkg.snake_case, not duplicate-checked (instances complete it)
	nameSuffix                 // single snake_case segment
)

func checkMetricArg(pass *analysis.Pass, arg ast.Expr, kind nameKind) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(), "metric name must be a compile-time constant string "+
			"(use Registry.PerInstance for per-instance identities); see the metricname invariant in DESIGN.md")
		return
	}
	name := constant.StringVal(tv.Value)
	switch kind {
	case fullName, namePrefix:
		if !fullNameRE.MatchString(name) {
			pass.Reportf(arg.Pos(), "metric name %q does not match the pkg.snake_case convention "+
				"(lowercase dot-separated snake_case segments, e.g. %q)", name, "raid6.stripe_encodes")
			return
		}
		// The first segment names the owner. A program asking for another
		// package's name reads an instrument that package registers: a
		// lookup, which neither claims the name nor collides with its owner.
		pkgName := pass.Pkg.Name()
		if first := name[:strings.IndexByte(name, '.')]; first != pkgName {
			if pkgName != "main" {
				pass.Reportf(arg.Pos(), "metric name %q must be prefixed with its registering package (%q), got segment %q",
					name, pkgName+".", first)
			}
			return
		}
		if kind == fullName {
			checkDuplicate(pass, arg.Pos(), name)
		}
	case nameSuffix:
		if !segmentRE.MatchString(name) {
			pass.Reportf(arg.Pos(), "per-instance metric suffix %q must be a single snake_case segment "+
				"(the instance id supplies the middle of the name)", name)
		}
	}
}

func checkDuplicate(pass *analysis.Pass, pos token.Pos, name string) {
	metricMu.Lock()
	defer metricMu.Unlock()
	if prev, ok := metricSeen[name]; ok && prev != pass.Pkg.Path() {
		pass.Reportf(pos, "metric %q is already registered by package %s; duplicate cross-package registrations make the two instruments indistinguishable", name, prev)
		return
	}
	if _, ok := metricSeen[name]; !ok {
		metricSeen[name] = pass.Pkg.Path()
	}
}
