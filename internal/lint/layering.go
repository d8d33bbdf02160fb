package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"
	"strings"

	"dualsim/internal/lint/analysis"
)

// rootImporters are the only internal packages that may import the root
// dualsim package: the serving layers built ON the session API.
// Everything else sits below the root package and is imported BY it — an
// upward import is a cycle waiting to happen and a sign that engine code
// grew a dependency on the API.
var rootImporters = []string{
	"internal/server",
	"internal/cluster",
	"internal/wire",
}

// routerRoute is the one route the scatter-gather backend registers
// itself; every other route is the protocol core's (internal/server),
// written once for both backends.
const routerRoute = "/v1/cluster"

// servingPackages answer traffic: the protocol core, the cluster layer
// and the two daemons. They run the session's one executor and may not
// reach for an oracle.
var servingPackages = []string{
	"internal/server",
	"internal/cluster",
	"cmd/dualsimd",
	"cmd/dualsimrouter",
}

// LayeringAnalyzer pins the import direction and the protocol split so
// the collapsed designs stay collapsed:
//
//  1. the kernels import nothing upward — internal/bitvec imports no
//     package of this module, internal/bitmat only internal/bitvec;
//  2. no internal package imports the root dualsim package except the
//     serving layers (rootImporters);
//  3. internal/cluster/router registers no route but /v1/cluster and
//     declares no ServeHTTP: the protocol's handlers live in
//     internal/server, once;
//  4. the serving packages (servingPackages) never name an oracle —
//     engine.NewIndexNL, engine.NewReference or dualsim.WithEngine: the
//     Volcano executor is the only evaluator behind a served request.
var LayeringAnalyzer = &analysis.Analyzer{
	Name: "layering",
	Doc: "pin import direction (kernels import nothing upward; internal/* does not import the root package " +
		"except server, cluster, wire), keep protocol handlers out of internal/cluster/router " +
		"and oracles out of the serving packages",
	Run: runLayering,
}

func runLayering(pass *analysis.Pass) error {
	path := pass.Path()
	for _, file := range pass.SourceFiles() {
		for _, imp := range file.Imports {
			target, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !analysis.HasPrefixPath(target, Module) {
				continue
			}
			switch {
			case inScope(path, "internal/bitvec"):
				pass.Reportf(imp.Pos(), "internal/bitvec imports %s; the bit-vector kernel imports nothing in-module", target)
			case inScope(path, "internal/bitmat") && target != Module+"/internal/bitvec":
				pass.Reportf(imp.Pos(), "internal/bitmat imports %s; the bit-matrix kernel imports only internal/bitvec", target)
			case target == Module && inScope(path, "internal") && !inScope(path, rootImporters...):
				pass.Reportf(imp.Pos(), "internal package imports the root %s package; only server, cluster and wire sit above the session API", Module)
			}
		}
	}
	if inScope(path, "internal/cluster/router") {
		checkRouterRoutes(pass)
	}
	if inScope(path, servingPackages...) {
		checkNoOracle(pass)
	}
	return nil
}

// checkNoOracle applies rule 4 to a serving package.
func checkNoOracle(pass *analysis.Pass) {
	for _, file := range pass.SourceFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Parent() != fn.Pkg().Scope() {
				return true
			}
			pkg, name := fn.Pkg().Path(), fn.Name()
			if pkg == Module+"/internal/engine" && (name == "NewIndexNL" || name == "NewReference") ||
				pkg == Module && name == "WithEngine" {
				pass.Reportf(id.Pos(), "serving package references %s.%s; oracles check the executor offline, served requests run Volcano only", fn.Pkg().Name(), name)
			}
			return true
		})
	}
}

// checkRouterRoutes applies rule 3 to the router package.
func checkRouterRoutes(pass *analysis.Pass) {
	for _, file := range pass.SourceFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "ServeHTTP" {
					pass.Reportf(n.Name.Pos(), "router declares ServeHTTP; requests enter through the protocol core in internal/server")
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") || len(n.Args) == 0 {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.Args[0]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(n.Args[0].Pos(), "router registers a route with a non-constant pattern; only %s may be mounted here", routerRoute)
					return true
				}
				pattern := constant.StringVal(tv.Value)
				route := pattern
				if _, rest, ok := strings.Cut(pattern, " "); ok { // "METHOD /path"
					route = rest
				}
				if route != routerRoute {
					pass.Reportf(n.Args[0].Pos(), "router registers %q; every route but %s belongs to the protocol core in internal/server", pattern, routerRoute)
				}
			}
			return true
		})
	}
}
