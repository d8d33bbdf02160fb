package lint

import (
	"go/ast"
	"go/types"

	"dualsim/internal/lint/analysis"
)

// HotpathAnnotation marks a function that the AllocsPerRun=0 benchmark
// guards promise is allocation-free: the bit-matrix multiply kernels,
// the statement-record path, the disabled-tracer no-op path.
const HotpathAnnotation = "//dualsim:hotpath"

// HotallocAnalyzer statically mirrors those guards. Inside a function
// annotated //dualsim:hotpath it reports
//
//   - any call into package fmt (formatting allocates and boxes);
//   - string concatenation inside a loop (quadratic garbage);
//   - map or slice composite literals (per-call heap allocation);
//   - boxing a basic numeric or boolean value into an interface
//     parameter or conversion (each box is a heap allocation once it
//     escapes);
//   - string(b) of a byte slice (the conversion copies the bytes to the
//     heap — the string-row-key idiom the executor's hashed row set
//     replaced);
//   - append([]T(nil), …), the clone idiom (one fresh backing array per
//     call; hot paths write rows into a window or block they reuse).
//
// The annotation goes on the function's doc comment; the analyzer
// follows the body including its closures (a closure called on the hot
// path allocates on the hot path).
var HotallocAnalyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "//dualsim:hotpath functions must not call fmt, concatenate strings in loops, build map/slice literals, box scalars into interfaces, convert byte slices to strings or clone slices with append([]T(nil), …)",
	Run:  runHotalloc,
}

func runHotalloc(pass *analysis.Pass) error {
	for _, file := range pass.SourceFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasAnnotation(fn.Doc, HotpathAnnotation) {
				continue
			}
			checkHotBody(pass, fn.Name.Name, fn.Body)
		}
	}
	return nil
}

func checkHotBody(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.ForStmt:
				if nn.Init != nil {
					walk(nn.Init, loopDepth)
				}
				if nn.Cond != nil {
					walk(nn.Cond, loopDepth)
				}
				if nn.Post != nil {
					walk(nn.Post, loopDepth)
				}
				walk(nn.Body, loopDepth+1)
				return false
			case *ast.RangeStmt:
				walk(nn.X, loopDepth)
				walk(nn.Body, loopDepth+1)
				return false
			case *ast.CallExpr:
				checkHotCall(pass, name, nn)
			case *ast.BinaryExpr:
				if loopDepth > 0 && nn.Op.String() == "+" && isNonConstString(pass, nn) {
					pass.Reportf(nn.OpPos, "hot path %s concatenates strings inside a loop; use a preallocated []byte or strings.Builder outside the loop", name)
				}
			case *ast.AssignStmt:
				if loopDepth > 0 && nn.Tok.String() == "+=" && len(nn.Lhs) == 1 && isStringType(pass, nn.Lhs[0]) {
					pass.Reportf(nn.TokPos, "hot path %s concatenates strings inside a loop; use a preallocated []byte or strings.Builder outside the loop", name)
				}
			case *ast.CompositeLit:
				t := pass.TypesInfo.TypeOf(nn)
				if t != nil {
					switch t.Underlying().(type) {
					case *types.Map:
						pass.Reportf(nn.Pos(), "hot path %s allocates a map literal; hoist it out of the hot path", name)
					case *types.Slice:
						pass.Reportf(nn.Pos(), "hot path %s allocates a slice literal; hoist it out of the hot path", name)
					}
				}
			}
			return true
		})
	}
	walk(body, 0)
}

func checkHotCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	fn := pass.CalleeFunc(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path %s calls fmt.%s; formatting allocates — precompute or use strconv.Append*", name, fn.Name())
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) > 0 && isNilConversion(pass, call.Args[0]) {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			pass.Reportf(call.Pos(), "hot path %s clones a slice with append(%s, …); carve the copy from a preallocated buffer", name, types.ExprString(call.Args[0]))
			return
		}
	}
	// Boxing: a basic (numeric/bool) argument passed to an interface
	// parameter heap-allocates once it escapes.
	sig := callSignature(pass, call)
	if sig == nil {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 && isStringType(pass, call) && isByteSlice(pass, call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path %s converts a byte slice to a string; the copy allocates — hash the bytes or keep them as a slice", name)
		}
		// A conversion like any(x) still boxes.
		if t := pass.TypesInfo.TypeOf(call); t != nil && types.IsInterface(t) && len(call.Args) == 1 {
			if isBoxableBasic(pass, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(), "hot path %s boxes a %s into an interface; keep scalars unboxed on the hot path", name, pass.TypesInfo.TypeOf(call.Args[0]))
			}
		}
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing a slice through, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && isBoxableBasic(pass, arg) {
			pass.Reportf(arg.Pos(), "hot path %s boxes a %s into an interface argument of %s; keep scalars unboxed on the hot path", name, pass.TypesInfo.TypeOf(arg), fnName(fn))
		}
	}
}

// isNilConversion reports whether e is a conversion of nil to a slice
// type — the []T(nil) of the append clone idiom.
func isNilConversion(pass *analysis.Pass, e ast.Expr) bool {
	conv, ok := e.(*ast.CallExpr)
	if !ok || len(conv.Args) != 1 {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[conv.Fun]; !ok || !tv.IsType() {
		return false
	}
	if _, ok := pass.TypesInfo.TypeOf(conv).Underlying().(*types.Slice); !ok {
		return false
	}
	return pass.TypesInfo.Types[conv.Args[0]].IsNil()
}

func isByteSlice(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func fnName(fn *types.Func) string {
	if fn == nil {
		return "a function value"
	}
	return fn.Name()
}

// callSignature returns the signature of a genuine call (not a type
// conversion or builtin).
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	sig, _ := t.(*types.Signature)
	return sig
}

// isBoxableBasic reports whether e's static type is a basic numeric or
// boolean — the scalar kinds whose interface conversion allocates.
// (Strings convert to a 2-word interface without copying the bytes but
// the header still escapes; they are included.)
func isBoxableBasic(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsNumeric|types.IsBoolean|types.IsString) != 0
}

func isNonConstString(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
		return false // folded at compile time
	}
	return isStringType(pass, e.X) || isStringType(pass, e.Y)
}

func isStringType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
