// Package determinism checks the repository's byte-identical-results
// contract at the source level: in result-affecting packages, nothing may
// depend on Go's deliberately randomized map iteration order, on wall-clock
// time, or on math/rand — and sorts of result-affecting data must be
// stable, because a non-stable sort turns equal keys into schedule noise.
//
// Allowed escapes:
//
//   - the collect-then-sort idiom: a map iteration whose loop body only
//     collects keys/values that a later sort.* / slices.Sort* call orders
//     before use is deterministic by construction and passes unflagged;
//   - an explicit `//smt:sorted <reason>` annotation on (or immediately
//     above) the offending line, for iterations whose order provably
//     cannot reach results (e.g. building a set, folding a commutative
//     reduction). The reason is mandatory.
//
// Randomness belongs in internal/rng, whose hash-based generators are
// seeded deterministically; that package is deliberately outside this
// analyzer's scope.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// ResultAffecting lists the module-relative package paths whose code can
// reach simulation results or fingerprints. smt is included: it derives
// the exported Results set; internal/state because restored machine state
// reaches results.
var ResultAffecting = []string{
	"internal/core",
	"internal/exp",
	"internal/policy",
	"internal/mem",
	"internal/iq",
	"internal/rename",
	"internal/branch",
	"internal/workload",
	"internal/fingerprint",
	"internal/snapshot",
	"internal/state",
	"smt",
}

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag unordered map iteration, wall-clock time, math/rand, and " +
		"non-stable sorts in result-affecting packages",
	Run: run,
}

// InScope reports whether a module-relative package path is result-affecting.
func InScope(rel string) bool {
	return slices.Contains(ResultAffecting, rel)
}

func run(pass *analysis.Pass) error {
	if !InScope(pass.Pkg.RelPath) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if analysis.IsTestFile(pass.Prog.Fset, f) {
			continue
		}
		ann := analysis.AnnotationsOf(pass.Prog.Fset, f)
		checkImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, f, ann, n)
			case *ast.CallExpr:
				checkCall(pass, ann, n)
			}
			return true
		})
	}
	return nil
}

// checkImports flags math/rand imports wholesale: even a deterministically
// seeded rand.Source has a generator-version dependence the paper numbers
// must not inherit; internal/rng is the blessed home for randomness.
func checkImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.Reportf(imp.Pos(), "import of %s in result-affecting package %s: use internal/rng's deterministic generators", path, pass.Pkg.RelPath)
		}
	}
}

// checkRange flags iteration over unordered sources: map-typed operands
// and reflect's MapKeys slices (whose element order is randomized the same
// way).
func checkRange(pass *analysis.Pass, f *ast.File, ann *analysis.FileAnnotations, rng *ast.RangeStmt) {
	var source string
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	switch {
	case isMap(tv.Type):
		source = "map"
	case isReflectMapKeys(pass, rng.X):
		source = "reflect.Value.MapKeys"
	default:
		return
	}
	if a, ok := ann.At(rng.Pos(), "sorted"); ok {
		if a.Reason == "" {
			pass.Reportf(rng.Pos(), "//smt:sorted annotation needs a justification after the verb")
		}
		return
	}
	if collectThenSort(pass, f, rng) {
		return
	}
	pass.Reportf(rng.Pos(), "iteration over unordered %s in result-affecting package %s: sort the keys first or justify with //smt:sorted", source, pass.Pkg.RelPath)
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isReflectMapKeys reports whether e is a call to (reflect.Value).MapKeys.
func isReflectMapKeys(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "MapKeys" {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "reflect"
}

// checkCall flags wall-clock reads and non-stable sorts.
func checkCall(pass *analysis.Pass, ann *analysis.FileAnnotations, call *ast.CallExpr) {
	pkg, name := calleePkgFunc(pass, call)
	switch {
	case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
		pass.Reportf(call.Pos(), "time.%s in result-affecting package %s: simulated time must come from cycle counters", name, pass.Pkg.RelPath)
	case (pkg == "sort" && name == "Slice") || (pkg == "slices" && name == "SortFunc"):
		if a, ok := ann.At(call.Pos(), "sorted"); ok {
			if a.Reason == "" {
				pass.Reportf(call.Pos(), "//smt:sorted annotation needs a justification after the verb")
			}
			return
		}
		pass.Reportf(call.Pos(), "non-stable %s.%s on result-affecting data: use the stable variant or justify a total order with //smt:sorted", pkg, name)
	}
}

// calleePkgFunc resolves a call to (package path, function name) for
// package-level functions; empty strings otherwise.
func calleePkgFunc(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // method, not a package function
	}
	return fn.Pkg().Path(), fn.Name()
}

// collectThenSort recognizes the sorted-keys idiom: every variable the
// loop body writes is either ordered by a later sort call in the same
// function or never ranged over again (lookup tables are order-blind).
// Conservatively, at least one collected variable must be sorted.
func collectThenSort(pass *analysis.Pass, f *ast.File, rng *ast.RangeStmt) bool {
	// Variables assigned (incl. appended to) inside the loop body.
	collected := map[types.Object]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := pass.Pkg.Info.Uses[id]; obj != nil {
					collected[obj] = true
				} else if obj := pass.Pkg.Info.Defs[id]; obj != nil {
					collected[obj] = true
				}
			}
		}
		return true
	})
	if len(collected) == 0 {
		return false
	}

	// A sort call after the loop over one of the collected variables.
	fn := enclosingFunc(f, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return true
		}
		pkg, name := calleePkgFunc(pass, call)
		isSort := (pkg == "sort" && (name == "Strings" || name == "Ints" || name == "Float64s" ||
			name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable")) ||
			(pkg == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Uses[id]; obj != nil && collected[obj] {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// enclosingFunc returns the function declaration or literal body containing pos.
func enclosingFunc(f *ast.File, pos token.Pos) ast.Node {
	var found ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				found = n
			}
		}
		return true
	})
	return found
}
