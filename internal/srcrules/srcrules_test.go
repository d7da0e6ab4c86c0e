// Package srcrules is test-only: the repository's source-level rules as
// data, checked with go/ast alone. A package name is resolved through the
// file's own import list, so no type-checker and no `go list` is needed,
// and the rules run wherever `go test ./...` does.
//
// Unordered map iteration is deliberately not a rule: it needs types, no
// site exists, and the goldens and byte-identity tests fail on one every
// run. Steady-state allocation is core's TestSteadyStateCycleAllocs.
package srcrules

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var (
	// resultAffecting packages can reach simulation results or fingerprints.
	resultAffecting = []string{"internal/core", "internal/exp", "internal/policy", "internal/mem",
		"internal/iq", "internal/rename", "internal/branch", "internal/workload",
		"internal/fingerprint", "internal/snapshot", "internal/state", "smt"}
	// model packages run inside the cycle loop.
	model = []string{"internal/core", "internal/policy", "internal/mem", "internal/iq",
		"internal/rename", "internal/branch", "internal/workload"}
	clients  = []string{"internal/dist", "internal/cache", "cmd/smtd"}
	waiters  = []string{"internal/dist", "internal/cache"}
	handlers = []string{"cmd/smtd", "internal/dist"}
)

// ban forbids, in pkgs, any reference to the named package-level functions
// of one import path; with no funcs, the import itself.
type ban struct {
	pkgs   []string
	path   string
	funcs  []string
	sorted bool // `//smt:sorted <reason>` on the line or the one above permits it
	why    string
}

const (
	whyRand   = "use internal/rng's deterministic generators"
	whyClock  = "simulated time must come from cycle counters"
	whySort   = "non-stable sort on result-affecting data: use the stable variant or justify a total order with //smt:sorted <reason>"
	whyNoCtx  = "no context and no timeout: build the request with http.NewRequestWithContext"
	whySleep  = "cannot be interrupted, and once wedged a SIGTERM drain: wait with resilience.Sleep(ctx, d) or a resilience.Policy backoff"
	whyBody   = "request body read without http.MaxBytesReader: a client controls this allocation, wrap it"
	whyCaller = "builds a request but takes no context.Context: the caller cannot cancel or bound it"
	whySpawn  = "in a model package: the cycle loop is single-threaded and straight-line, hoist it out"
)

var bans = []ban{
	{resultAffecting, "math/rand", nil, false, whyRand},
	{resultAffecting, "math/rand/v2", nil, false, whyRand},
	{resultAffecting, "time", []string{"Now", "Since", "Until"}, false, whyClock},
	{resultAffecting, "sort", []string{"Slice"}, true, whySort},
	{resultAffecting, "slices", []string{"SortFunc"}, true, whySort},
	{clients, "net/http", []string{"NewRequest", "Get", "Post", "PostForm", "Head"}, false, whyNoCtx},
	{waiters, "time", []string{"Sleep"}, false, whySleep},
}

// check returns one "file:line: message" per violation in f, a non-test
// file of the module-relative package rel.
func check(fset *token.FileSet, rel string, f *ast.File) (found []string) {
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		found = append(found, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...)))
	}
	imports := map[string]string{} // local package name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
		for _, b := range bans {
			if b.path == p && b.funcs == nil && slices.Contains(b.pkgs, rel) {
				report(imp.Pos(), "import of %s: %s", p, b.why)
			}
		}
	}
	// is reports whether e names pkgPath.name; an identifier the parser
	// resolved to a local declaration (Obj != nil) is not a package.
	is := func(e ast.Expr, pkgPath, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Obj == nil && imports[id.Name] == pkgPath
	}
	justified := map[int]string{} // line of a //smt:sorted comment -> its reason
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if reason, ok := strings.CutPrefix(c.Text, "//smt:sorted"); ok {
				justified[fset.Position(c.Pos()).Line] = strings.TrimSpace(reason)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			for _, b := range bans {
				if !slices.Contains(b.pkgs, rel) || !slices.ContainsFunc(b.funcs, func(fn string) bool { return is(n, b.path, fn) }) {
					continue
				}
				line := fset.Position(n.Pos()).Line
				reason, ok := justified[line]
				if !ok {
					reason, ok = justified[line-1]
				}
				switch {
				case !b.sorted || !ok:
					report(n.Pos(), "%s.%s: %s", path.Base(b.path), n.Sel.Name, b.why)
				case reason == "":
					report(n.Pos(), "//smt:sorted needs a justification after the verb")
				}
			}
		case *ast.GoStmt, *ast.DeferStmt:
			if slices.Contains(model, rel) {
				report(n.Pos(), "go/defer statement %s", whySpawn)
			}
		}
		return true
	})
	// The per-function rules see each top-level function once, closures
	// included; a function literal in a package-level declaration is one.
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			checkFunc(rel, fd.Name.Name, fd.Type, fd.Body, is, report)
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if ok {
				checkFunc(rel, "a function literal", lit.Type, lit.Body, is, report)
			}
			return !ok
		})
	}
	return found
}

// checkFunc applies the two per-function rules to one top-level function.
func checkFunc(rel, name string, ft *ast.FuncType, body *ast.BlockStmt, is func(ast.Expr, string, string) bool, report func(token.Pos, string, ...any)) {
	hasCtx := false
	requests := map[string]bool{} // names of *http.Request parameters
	params := func(ft *ast.FuncType) {
		for _, field := range ft.Params.List {
			hasCtx = hasCtx || is(field.Type, "context", "Context")
			if star, ok := field.Type.(*ast.StarExpr); ok && is(star.X, "net/http", "Request") {
				for _, name := range field.Names {
					requests[name.Name] = true
				}
			}
		}
	}
	params(ft)
	allowed := map[ast.Expr]bool{} // r.Body as a MaxBytesReader argument or an assignment target
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			params(n.Type)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				allowed[lhs] = true
			}
		case *ast.CallExpr:
			if is(n.Fun, "net/http", "MaxBytesReader") {
				for _, arg := range n.Args {
					allowed[arg] = true
				}
			}
			if is(n.Fun, "net/http", "NewRequestWithContext") && !hasCtx && slices.Contains(clients, rel) {
				report(n.Pos(), "%s %s", name, whyCaller)
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && n.Sel.Name == "Body" && requests[id.Name] && !allowed[n] && slices.Contains(handlers, rel) {
				report(n.Pos(), whyBody)
			}
		}
		return true
	})
}

// TestSourceRules holds every non-test file of every package a rule names
// to the rules.
func TestSourceRules(t *testing.T) {
	for _, rel := range slices.Concat(resultAffecting, clients) { // the other scopes are subsets
		dir := filepath.Join("..", "..", rel)
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		names = slices.DeleteFunc(names, func(n string) bool { return strings.HasSuffix(n, "_test.go") })
		if len(names) == 0 {
			t.Errorf("%s: no Go files: a rule names a package that moved", rel)
		}
		for _, name := range names {
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path.Join(rel, filepath.Base(name)), src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, finding := range check(fset, rel, f) {
				t.Error(finding)
			}
		}
	}
}

// TestSourceRulesFire proves each rule on in-memory sources: the lines
// listed must be reported, and no others.
func TestSourceRulesFire(t *testing.T) {
	for _, tc := range []struct {
		name, rel, src string
		want           []int
	}{
		{"aliased math/rand", "internal/mem", "package p\nimport mrand \"math/rand\"\nvar _ = mrand.Int", []int{2}},
		{"math/rand/v2", "smt", "package p\nimport \"math/rand/v2\"\nvar _ = rand.Int", []int{2}},
		{"math/rand out of scope", "internal/dist", "package p\nimport \"math/rand\"\nvar _ = rand.Int", nil},
		{"wall clock", "internal/core", "package p\nimport \"time\"\nvar a = time.Now()\nvar b = time.Since(a)\nvar c = time.Until", []int{3, 4, 5}},
		{"wall clock quiet", "internal/core", "package p\nimport \"time\"\nvar d = 3 * time.Second\nfunc f(time interface{ Now() }) { time.Now() }", nil},
		{"aliased clock", "internal/exp", "package p\nimport clock \"time\"\nvar a = clock.Now()", []int{3}},
		{"sorts", "internal/exp", `package p
import ("slices"; "sort")
func f(s []int) {
	sort.Slice(s, nil)
	//smt:sorted
	slices.SortFunc(s, nil)
	//smt:sorted keys are unique, so the order is total
	sort.Slice(s, nil)
	slices.SortFunc(s, nil) //smt:sorted keys are unique
	sort.SliceStable(s, nil)
	slices.Sort(s)
}`, []int{4, 6}},
		{"sort out of scope", "cmd/smtd", "package p\nimport \"sort\"\nfunc f(s []int) { sort.Slice(s, nil) }", nil},
		{"ctx-less requests", "internal/cache", `package p
import "net/http"
func f() {
	http.NewRequest("GET", "u", nil)
	http.Get("u")
	http.Post("u", "", nil)
	http.PostForm("u", nil)
	http.Head("u")
}`, []int{4, 5, 6, 7, 8}},
		{"ctx-less requests out of scope", "internal/exp", "package p\nimport \"net/http\"\nfunc f() { http.Get(\"u\") }", nil},
		{"sleep", "internal/dist", "package p\nimport \"time\"\nfunc f() { time.Sleep(1) }", []int{3}},
		{"sleep in the CLI shell", "cmd/smtd", "package p\nimport \"time\"\nfunc f() { time.Sleep(1) }", nil},
		{"caller owns the deadline", "internal/dist", `package p
import ("context"; "net/http")
type w struct{}
func (w) send() { http.NewRequestWithContext(context.Background(), "GET", "u", nil) }
func (w) sendCtx(ctx context.Context) { func() { http.NewRequestWithContext(ctx, "GET", "u", nil) }() }`, []int{4}},
		{"request bodies", "cmd/smtd", `package p
import ("io"; "net/http")
func h(w http.ResponseWriter, r *http.Request) {
	io.ReadAll(r.Body)
	func() { io.Copy(io.Discard, r.Body) }()
	io.ReadAll(http.MaxBytesReader(w, r.Body, 1))
	r.Body = http.NoBody
}
var _ = func(rw http.ResponseWriter, req *http.Request) { io.ReadAll(req.Body) }
func g() { var lit = func(rw http.ResponseWriter, req *http.Request) { io.ReadAll(req.Body) }; _ = lit }
func resp(r *http.Response) { io.ReadAll(r.Body) }`, []int{4, 5, 9, 10}},
		{"request bodies out of scope", "internal/cache", "package p\nimport (\"io\"; \"net/http\")\nfunc h(r *http.Request) { io.ReadAll(r.Body) }", nil},
		{"go and defer", "internal/iq", "package p\nfunc f() {\n\tdefer f()\n\tgo f()\n}", []int{3, 4}},
		{"go and defer outside the model", "internal/exp", "package p\nfunc f() {\n\tdefer f()\n\tgo f()\n}", nil},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "src.go", tc.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		found := check(fset, tc.rel, f)
		ok := len(found) == len(tc.want)
		for _, line := range tc.want {
			at := fmt.Sprintf("src.go:%d:", line)
			ok = ok && slices.ContainsFunc(found, func(finding string) bool { return strings.HasPrefix(finding, at) })
		}
		if !ok {
			t.Errorf("%s: want findings at lines %v, got:\n%s", tc.name, tc.want, strings.Join(found, "\n"))
		}
	}
}
