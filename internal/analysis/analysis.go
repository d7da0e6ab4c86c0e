// Package analysis is a small, dependency-free analysis framework for the
// repository's own static checkers (cmd/smtlint). It mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// checkers could migrate to the real framework if the module ever takes
// that dependency, but it is implemented entirely on the standard
// library's go/ast and go/types: packages are loaded with `go list
// -export` and type-checked from source, with dependencies imported from
// the build cache's export data.
//
// Unlike the x/tools driver, a Pass here sees the whole loaded program
// (Pass.Prog), not just one package. The repository's invariants are
// cross-package by nature — the hot-path callee set spans core, iq, mem,
// rename, branch, policy and workload — and a whole-program view is the
// simplest sound way to check them without a facts store.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Run executes the analyzer for one package. Cross-package analyzers
	// reach sibling packages through pass.Prog; they should still report
	// each finding exactly once (the driver runs the analyzer once per
	// loaded package).
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run over one package of a loaded program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	// report collects diagnostics; guarded against nil for tests.
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	if p.report != nil {
		p.report(d)
	}
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// A Package is one type-checked module package.
type Package struct {
	// PkgPath is the full import path (e.g. "repro/internal/core").
	PkgPath string
	// RelPath is the path relative to the module root ("internal/core";
	// "." for the module root package). Analyzers match on RelPath so
	// fixture modules with a different module name behave identically.
	RelPath string

	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is a loaded, type-checked module: every package matched by the
// load patterns plus their intra-module dependencies.
type Program struct {
	Fset *token.FileSet
	Dir  string // module root directory

	// Packages in dependency order (imports before importers).
	Packages []*Package
}

// Run executes the analyzers over every package of the program and returns
// the findings sorted by position. Load errors in analyzers abort the run.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{
				Analyzer: a,
				Prog:     prog,
				Pkg:      pkg,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	SortDiagnostics(prog.Fset, diags)
	return diags, nil
}

// SortDiagnostics orders findings by file, line, column, then analyzer.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// IsTestFile reports whether f comes from a _test.go file. The invariants
// the analyzers enforce protect production behavior; tests may iterate
// maps, hit httptest servers with http.Get, and allocate freely.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// ---- Annotations ----
//
// The checkers are driven by structured comments ("//smt:<verb> reason"):
//
//	//smt:hotpath   – roots the hot-path callee traversal at a function
//	//smt:coldpath  – cuts the traversal: the function is amortized or
//	                  rare (growth, refill, panic) and may allocate
//	//smt:alloc     – justifies one allocating line inside a hot function
//	//smt:sorted    – justifies one unordered iteration or non-stable sort
//
// An annotation must carry a reason after the verb; a bare verb is itself
// a diagnostic (enforced by the analyzers that consume it), so the
// justification discipline cannot erode into cargo-culted markers.

// Annotation is one parsed //smt: marker.
type Annotation struct {
	Verb   string // "hotpath", "coldpath", "alloc", "sorted"
	Reason string
	Pos    token.Pos
}

// parseAnnotation parses "//smt:verb reason..." comment text; ok reports
// whether the comment is an smt marker at all.
func parseAnnotation(c *ast.Comment) (Annotation, bool) {
	text, found := strings.CutPrefix(c.Text, "//smt:")
	if !found {
		return Annotation{}, false
	}
	verb, reason, _ := strings.Cut(text, " ")
	return Annotation{Verb: strings.TrimSpace(verb), Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// FileAnnotations indexes every //smt: marker of a file by line, so
// checkers can ask "is line N (or N's predecessor) justified?" in O(1).
type FileAnnotations struct {
	fset   *token.FileSet
	byLine map[int]Annotation
}

// AnnotationsOf collects the //smt: markers of f.
func AnnotationsOf(fset *token.FileSet, f *ast.File) *FileAnnotations {
	fa := &FileAnnotations{fset: fset, byLine: map[int]Annotation{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if a, ok := parseAnnotation(c); ok {
				fa.byLine[fset.Position(c.Pos()).Line] = a
			}
		}
	}
	return fa
}

// At returns the annotation with the given verb covering pos: on the same
// line, or on the line immediately above (the conventional comment-above
// placement). The second return is false when no such annotation exists.
func (fa *FileAnnotations) At(pos token.Pos, verb string) (Annotation, bool) {
	line := fa.fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		if a, ok := fa.byLine[l]; ok && a.Verb == verb {
			return a, true
		}
	}
	return Annotation{}, false
}

// AtLine is At for callers that have a line number instead of a position
// (the escapes mode attributes compiler output lines).
func (fa *FileAnnotations) AtLine(line int, verb string) (Annotation, bool) {
	for _, l := range [2]int{line, line - 1} {
		if a, ok := fa.byLine[l]; ok && a.Verb == verb {
			return a, true
		}
	}
	return Annotation{}, false
}

// FuncAnnotation returns the verb annotation attached to a function
// declaration: in its doc comment or on the declaration line.
func FuncAnnotation(fset *token.FileSet, fn *ast.FuncDecl, fa *FileAnnotations, verb string) (Annotation, bool) {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if a, ok := parseAnnotation(c); ok && a.Verb == verb {
				return a, true
			}
		}
	}
	return fa.At(fn.Pos(), verb)
}
