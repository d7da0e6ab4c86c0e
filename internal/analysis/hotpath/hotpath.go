// Package hotpath generalizes the zero-allocation cycle-loop guard from a
// runtime measurement on one configuration (core's
// TestSteadyStateCycleAllocs) to a structural check on every compile.
//
// Functions annotated `//smt:hotpath` are steady-state roots (Step and the
// pipeline stages). The analyzer computes the transitive static callee set
// — resolving interface method calls by class-hierarchy analysis over the
// module, so every direction engine behind the predictor's engine slot is
// included — and flags
// known-allocating constructs anywhere in that set: capturing closures,
// map/slice literals, make/new, fmt.* calls, string concatenation,
// interface boxing, appends to function-local nil slices, and defer/go
// statements.
//
// Escapes:
//
//   - `//smt:coldpath <reason>` on a function cuts the traversal: the
//     function is amortized or rare (buffer growth, pool refill) and may
//     allocate. The reason is mandatory.
//   - `//smt:alloc <reason>` justifies one allocating line inside a hot
//     function (e.g. an amortized growth guard). The reason is mandatory.
//   - Allocations whose enclosing expression is a panic argument are
//     exempt: a panicking simulator has no steady state to protect.
//
// The companion escapes mode (Escapes) parses `go build -gcflags=-m`
// output and applies the same hot-set attribution to the compiler's own
// escape analysis, catching whatever the syntactic checks cannot see.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flag allocating constructs in the transitive callee set of " +
		"//smt:hotpath roots",
	Run: run,
}

// funcInfo is one module function the traversal can visit.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *analysis.Package
	file *ast.File
	ann  *analysis.FileAnnotations

	root bool // //smt:hotpath
	cold bool // //smt:coldpath

	hot bool        // reached from a root
	via *types.Func // discovery parent (nil for roots)
}

// collect builds the program's function table and annotation state.
func collect(prog *analysis.Program) map[*types.Func]*funcInfo {
	funcs := map[*types.Func]*funcInfo{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if analysis.IsTestFile(prog.Fset, f) {
				continue
			}
			ann := analysis.AnnotationsOf(prog.Fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{fn: fn, decl: fd, pkg: pkg, file: f, ann: ann}
				_, fi.root = analysis.FuncAnnotation(prog.Fset, fd, ann, "hotpath")
				if a, ok := analysis.FuncAnnotation(prog.Fset, fd, ann, "coldpath"); ok {
					fi.cold = true
					fi.coldReasonCheck(a)
				}
				funcs[fn] = fi
			}
		}
	}
	return funcs
}

// coldReason diagnostics are deferred until a pass reports; stash state.
var missingColdReason []*funcInfo

func (fi *funcInfo) coldReasonCheck(a analysis.Annotation) {
	if a.Reason == "" {
		missingColdReason = append(missingColdReason, fi)
	}
}

// sortedFuncs returns the function table in source-position order, so
// traversal and reporting are deterministic despite the map index.
func sortedFuncs(funcs map[*types.Func]*funcInfo) []*funcInfo {
	out := make([]*funcInfo, 0, len(funcs))
	for _, fi := range funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// hotSet marks every function reachable from a //smt:hotpath root without
// crossing a //smt:coldpath cut, and returns the roots.
func hotSet(prog *analysis.Program, funcs map[*types.Func]*funcInfo) []*funcInfo {
	var roots, queue []*funcInfo
	for _, fi := range sortedFuncs(funcs) {
		if fi.root {
			fi.hot = true
			roots = append(roots, fi)
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range callees(prog, fi) {
			ci, ok := funcs[callee]
			if !ok || ci.hot || ci.cold {
				continue
			}
			ci.hot = true
			ci.via = fi.fn
			queue = append(queue, ci)
		}
	}
	return roots
}

// callees resolves the static call edges out of one function body. Calls
// through plain function values (fields, variables) are invisible to this
// resolution; the escapes mode and the runtime alloc test backstop them.
func callees(prog *analysis.Program, fi *funcInfo) []*types.Func {
	var out []*types.Func
	info := fi.pkg.Info
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		if ix, ok := fun.(*ast.IndexExpr); ok { // generic instantiation
			fun = ast.Unparen(ix.X)
		}
		switch fun := fun.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				out = append(out, origin(fn))
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				fn := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					out = append(out, implementers(prog, sel.Recv(), fn.Name())...)
				} else {
					out = append(out, origin(fn))
				}
				return true
			}
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				out = append(out, origin(fn))
			}
		}
		return true
	})
	return out
}

// origin canonicalizes instantiated generic functions/methods to their
// declared origin, which is what Defs recorded.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// implementers performs class-hierarchy analysis: every method named name
// on a module type that implements the interface is a possible callee.
func implementers(prog *analysis.Program, iface types.Type, name string) []*types.Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, pkg := range prog.Packages {
		scope := pkg.Types.Scope()
		for _, tn := range scope.Names() {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || obj.IsAlias() {
				continue
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, it) && !types.Implements(ptr, it) {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(ptr, true, obj.Pkg(), name); m != nil {
				if fn, ok := m.(*types.Func); ok {
					out = append(out, origin(fn))
				}
			}
		}
	}
	return out
}

func run(pass *analysis.Pass) error {
	missingColdReason = nil
	funcs := collect(pass.Prog)
	roots := hotSet(pass.Prog, funcs)
	if len(roots) == 0 {
		return nil
	}
	// Report once per program: only the pass visiting the first root's
	// package emits (diagnostics may still point into other packages).
	first := roots[0]
	for _, r := range roots {
		if pass.Prog.Fset.Position(r.decl.Pos()).Filename < pass.Prog.Fset.Position(first.decl.Pos()).Filename {
			first = r
		}
	}
	if pass.Pkg != first.pkg {
		return nil
	}
	for _, fi := range missingColdReason {
		pass.Reportf(fi.decl.Pos(), "//smt:coldpath on %s needs a justification after the verb", fi.fn.Name())
	}
	for _, fi := range sortedFuncs(funcs) {
		if fi.hot {
			checkBody(pass, fi)
		}
	}
	return nil
}

// checkBody flags the known-allocating constructs in one hot function.
func checkBody(pass *analysis.Pass, fi *funcInfo) {
	info := fi.pkg.Info
	panicRanges := panicArgRanges(info, fi.decl.Body)
	exempt := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		if a, ok := fi.ann.At(pos, "alloc"); ok {
			if a.Reason == "" {
				pass.Reportf(pos, "//smt:alloc annotation needs a justification after the verb")
			}
			return true
		}
		return false
	}
	where := func() string {
		if fi.via != nil {
			return " in hot-path function " + fi.fn.Name() + " (reached via " + fi.via.Name() + ")"
		}
		return " in hot-path function " + fi.fn.Name()
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if captures(info, n) && !exempt(n.Pos()) {
				pass.Reportf(n.Pos(), "capturing closure allocates%s", where())
			}
		case *ast.CompositeLit:
			t, ok := info.Types[n]
			if !ok || exempt(n.Pos()) {
				return true
			}
			switch t.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates%s", where())
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates%s", where())
			}
		case *ast.CallExpr:
			checkCallAlloc(pass, fi, n, exempt, where)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) && !exempt(n.Pos()) {
				pass.Reportf(n.Pos(), "string concatenation allocates%s", where())
			}
		case *ast.DeferStmt:
			if !exempt(n.Pos()) {
				pass.Reportf(n.Pos(), "defer%s: hoist out of the steady-state loop", where())
			}
		case *ast.GoStmt:
			if !exempt(n.Pos()) {
				pass.Reportf(n.Pos(), "goroutine launch allocates%s", where())
			}
		}
		return true
	})

	checkLocalAppends(pass, fi, exempt, where)
}

// checkCallAlloc flags allocating calls: make/new builtins, fmt.*, and
// interface boxing of concrete arguments.
func checkCallAlloc(pass *analysis.Pass, fi *funcInfo, call *ast.CallExpr, exempt func(token.Pos) bool, where func() string) {
	info := fi.pkg.Info
	fun := ast.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !exempt(call.Pos()) {
					pass.Reportf(call.Pos(), "make allocates%s", where())
				}
			case "new":
				if !exempt(call.Pos()) {
					pass.Reportf(call.Pos(), "new allocates%s", where())
				}
			}
			return
		}
	}

	// Type conversion to an interface.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at, ok := info.Types[call.Args[0]]; ok && boxes(at.Type) && !exempt(call.Pos()) {
				pass.Reportf(call.Pos(), "conversion to interface allocates%s", where())
			}
		}
		return
	}

	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			if !exempt(call.Pos()) {
				pass.Reportf(call.Pos(), "fmt.%s allocates%s", fn.Name(), where())
			}
			return
		}
	}

	// Interface boxing at the call boundary.
	sig := callSignature(info, fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.IsNil() || !boxes(at.Type) {
			continue
		}
		if !exempt(arg.Pos()) {
			pass.Reportf(arg.Pos(), "passing %s as interface argument allocates%s", at.Type.String(), where())
		}
	}
}

// callSignature resolves the signature a call dispatches through, or nil
// for builtins and unresolvable function values.
func callSignature(info *types.Info, fun ast.Expr) *types.Signature {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// boxes reports whether converting a concrete value of type t to an
// interface allocates: anything that is not already an interface and is
// not pointer-shaped.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.UntypedNil
	}
	return true
}

// captures reports whether a function literal references variables
// declared outside it (a non-capturing literal compiles to a static
// function value and does not allocate).
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		// Package-level vars are static; referencing them captures nothing.
		if v.Parent() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			found = true
		}
		return true
	})
	return found
}

// isNonConstString reports whether a + expression concatenates strings at
// runtime (constant folding is free).
func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkLocalAppends flags appends whose base is a function-local slice
// declared without preallocated backing (`var s []T`): every call re-grows
// it. Appends into struct-field scratch buffers, parameters, or sliced
// views of them are the amortized reuse idiom and pass.
func checkLocalAppends(pass *analysis.Pass, fi *funcInfo, exempt func(token.Pos) bool, where func() string) {
	info := fi.pkg.Info

	// Local slice vars declared with no initializer.
	bare := map[types.Object]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		decl, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if _, ok := obj.Type().Underlying().(*types.Slice); ok {
					bare[obj] = true
				}
			}
		}
		return true
	})
	if len(bare) == 0 {
		return
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, ok := info.Uses[id].(*types.Builtin); !ok {
			return true
		}
		base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[base]; obj != nil && bare[obj] && !exempt(call.Pos()) {
			pass.Reportf(call.Pos(), "append to non-preallocated local slice %s allocates per call%s: reuse a scratch buffer", base.Name, where())
		}
		return true
	})
}

// panicArgRanges returns the position ranges of panic(...) arguments:
// allocation on a panic path has no steady state to protect.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			out = append(out, [2]token.Pos{call.Pos(), call.End()})
		}
		return true
	})
	return out
}
