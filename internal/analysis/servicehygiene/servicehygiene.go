// Package servicehygiene enforces the service tier's two standing rules,
// both learned the hard way in the durable-cache and federation reviews:
//
//  1. HTTP handlers in cmd/smtd and internal/dist may read a request body
//     only through http.MaxBytesReader. An unwrapped r.Body read is an
//     unbounded allocation a client controls.
//  2. Blocking client calls in internal/dist and internal/cache must be
//     cancellable: http.NewRequest (context-less) is banned in favor of
//     http.NewRequestWithContext, and any function that drives
//     http.Client.Do or uses the package-level http.Get/Post helpers must
//     accept a context.Context so its caller owns the deadline.
//  3. Bare time.Sleep is banned in internal/dist and internal/cache: a
//     sleep nothing can interrupt is how the worker's result-post retry
//     loop once wedged SIGTERM drains against a dead coordinator. Waits
//     belong on resilience.Sleep (ctx-aware) or a resilience.Policy's
//     backoff schedule.
//
// Explicitly-chosen detached contexts (context.Background() inside a
// function that still takes ctx, e.g. result drain on a canceled worker)
// remain visible in the code and are deliberately not flagged: the rule is
// about plumbing, not policy.
package servicehygiene

import (
	"go/ast"
	"go/types"
	"slices"

	"repro/internal/analysis"
)

// bodyScope lists packages whose request handlers are checked for rule 1.
var bodyScope = []string{"cmd/smtd", "internal/dist"}

// ctxScope lists packages whose client calls are checked for rule 2.
var ctxScope = []string{"internal/dist", "internal/cache", "cmd/smtd"}

// sleepScope lists packages where bare time.Sleep is banned (rule 3).
// Narrower than ctxScope: cmd/smtd's CLI shell has no retry loops, while
// these two packages are exactly where an uninterruptible sleep turns
// into a wedged drain.
var sleepScope = []string{"internal/dist", "internal/cache"}

// Analyzer is the service-hygiene checker.
var Analyzer = &analysis.Analyzer{
	Name: "servicehygiene",
	Doc: "request bodies only via http.MaxBytesReader; blocking client " +
		"calls must be cancellable (NewRequestWithContext, ctx parameters)",
	Run: run,
}

func inScope(scope []string, rel string) bool {
	return slices.Contains(scope, rel)
}

func run(pass *analysis.Pass) error {
	body := inScope(bodyScope, pass.Pkg.RelPath)
	ctx := inScope(ctxScope, pass.Pkg.RelPath)
	sleep := inScope(sleepScope, pass.Pkg.RelPath)
	if !body && !ctx && !sleep {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if analysis.IsTestFile(pass.Prog.Fset, f) {
			continue
		}
		if body {
			checkBodyReads(pass, f)
		}
		if ctx {
			checkContexts(pass, f)
		}
		if sleep {
			checkSleeps(pass, f)
		}
	}
	return nil
}

// checkSleeps flags bare time.Sleep calls: nothing can interrupt them,
// so a retry loop built on one holds a draining process hostage.
func checkSleeps(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name := calleePkgFunc(pass, call); pkg == "time" && name == "Sleep" {
			pass.Reportf(call.Pos(), "bare time.Sleep cannot be interrupted: wait with resilience.Sleep(ctx, d) or a resilience.Policy backoff")
		}
		return true
	})
}

// checkBodyReads flags every use of (*http.Request).Body that is not the
// direct argument of an http.MaxBytesReader call.
func checkBodyReads(pass *analysis.Pass, f *ast.File) {
	// Positions of r.Body expressions passed straight to MaxBytesReader.
	wrapped := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name := calleePkgFunc(pass, call); pkg == "net/http" && name == "MaxBytesReader" {
			for _, arg := range call.Args {
				wrapped[ast.Unparen(arg)] = true
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Body" {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[sel.X]
		if !ok || !isHTTPRequest(tv.Type) {
			return true
		}
		if wrapped[sel] {
			return true
		}
		// Writes (req.Body = ...) when building requests are not reads.
		if isAssignTarget(f, sel) {
			return true
		}
		pass.Reportf(sel.Pos(), "request body read without http.MaxBytesReader: a client controls this allocation, wrap it")
		return true
	})
}

func isHTTPRequest(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// isAssignTarget reports whether sel appears on the left of an assignment.
func isAssignTarget(f *ast.File, sel *ast.SelectorExpr) bool {
	target := false
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if ast.Unparen(lhs) == sel {
				target = true
			}
		}
		return !target
	})
	return target
}

// checkContexts flags context-less request construction and blocking calls
// inside functions that offer their caller no context parameter.
func checkContexts(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		hasCtx := funcTakesContext(pass, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name := calleePkgFunc(pass, call)
			switch {
			case pkg == "net/http" && name == "NewRequest":
				pass.Reportf(call.Pos(), "http.NewRequest builds an uncancellable request: use http.NewRequestWithContext")
			case pkg == "net/http" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
				pass.Reportf(call.Pos(), "http.%s has no context and no timeout: build a request with http.NewRequestWithContext", name)
			case isClientDo(pass, call) && !hasCtx:
				pass.Reportf(call.Pos(), "%s drives http.Client.Do but takes no context.Context: the caller cannot cancel or bound it", fd.Name.Name)
			}
			return true
		})
	}
}

func funcTakesContext(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.Pkg.Info.Types[field.Type]
		if !ok {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}

// isClientDo reports whether call is (*http.Client).Do.
func isClientDo(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isHTTPClient(sig.Recv().Type())
}

func isHTTPClient(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Client" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// calleePkgFunc resolves a call to (package path, name) for package-level
// functions; empty strings otherwise.
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
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}
