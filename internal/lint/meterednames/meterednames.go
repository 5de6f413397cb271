// Package meterednames keeps the telemetry metric namespace auditable:
// every name passed to a Registry registration method (Counter, Gauge,
// GaugeFunc, Histogram) must be a package-level constant. The scrape
// gates (TestTCPTelemetryE2E, the benchmark's per-layer metrics) and
// dashboards assert on literal series names; a name spelled inline at the
// registration site can drift — a typo'd resurrection of an old name,
// or a rename that misses one of the two places — without any compile
// error, and the gate only notices once the series it watches flatlines.
// A package-level const gives every metric name exactly one definition
// site that both the registration and the assertions can share.
package meterednames

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the meterednames pass.
var Analyzer = &analysis.Analyzer{
	Name: "meterednames",
	Doc:  "telemetry metric names must be package-level consts, not inline literals or variables",
	Run:  run,
}

// registrars are the telemetry.Registry methods whose first argument is
// a metric name.
var registrars = map[string]bool{
	"Counter": true, "Gauge": true, "GaugeFunc": true, "Histogram": true,
}

func run(pass *analysis.Pass) error {
	analysis.InspectAll(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !registrars[fn.Name()] ||
			lintutil.PathTail(fn.Pkg().Path()) != "telemetry" ||
			lintutil.ReceiverTypeName(fn) != "Registry" || len(call.Args) == 0 {
			return true
		}
		if why := notPackageConst(pass, call.Args[0]); why != "" {
			pass.Reportf(call.Args[0].Pos(),
				"metric name passed to Registry.%s must be a package-level const (%s)", fn.Name(), why)
		}
		return true
	})
	return nil
}

// notPackageConst returns "" when the expression is a reference to a
// package-level constant, or a description of what it is instead.
func notPackageConst(pass *analysis.Pass, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.BasicLit:
		return "inline string literal"
	default:
		return "computed expression"
	}
	obj := pass.TypesInfo.ObjectOf(id)
	c, ok := obj.(*types.Const)
	if !ok {
		return "not a constant"
	}
	// Package-level: the const's parent scope is its package scope
	// (local consts drift just as easily as literals).
	if c.Pkg() != nil && c.Parent() != c.Pkg().Scope() {
		return "function-local const"
	}
	return ""
}
