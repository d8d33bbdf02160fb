package lint

import (
	"go/ast"
	"go/constant"
	"strconv"
	"strings"

	"dualsim/internal/lint/analysis"
)

// rootImporters are the only internal packages that may import the root
// dualsim package: the serving layers built ON the session API, and the
// benchmark tables that drive it. Everything else sits below the root
// package and is imported BY it — an upward import is a cycle waiting
// to happen and a sign that engine code grew a dependency on the API.
var rootImporters = []string{
	"internal/server",
	"internal/cluster",
	"internal/wire",
	"internal/bench",
}

// routerRoute is the one route the scatter-gather backend registers
// itself; every other route is the protocol core's (internal/server),
// written once for both backends.
const routerRoute = "/v1/cluster"

// LayeringAnalyzer pins the import direction and the protocol split so
// the collapsed designs stay collapsed:
//
//  1. the kernels import nothing upward — internal/bitvec imports no
//     package of this module, internal/bitmat only internal/bitvec;
//  2. no internal package imports the root dualsim package except the
//     serving layers and bench (rootImporters);
//  3. internal/cluster/router registers no route but /v1/cluster and
//     declares no ServeHTTP: the protocol's handlers live in
//     internal/server, once.
var LayeringAnalyzer = &analysis.Analyzer{
	Name: "layering",
	Doc: "pin import direction (kernels import nothing upward; internal/* does not import the root package " +
		"except server, cluster, wire, bench) and keep protocol handlers out of internal/cluster/router",
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
				pass.Reportf(imp.Pos(), "internal package imports the root %s package; only server, cluster, wire and bench sit above the session API", Module)
			}
		}
	}
	if inScope(path, "internal/cluster/router") {
		checkRouterRoutes(pass)
	}
	return nil
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
