// Package load turns Go packages into the analysis framework's typed
// Program representation using only the standard library and the go tool.
//
// Module packages are parsed and type-checked from source (analyzers need
// their ASTs); everything else — the standard library and any out-of-module
// dependency — is imported from compiler export data, which `go list
// -export` materializes in the build cache. This is the same split
// golang.org/x/tools/go/packages performs, scoped down to what the
// repository's checkers need.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	Module     *listModule
	Error      *listError
	DepsErrors []*listError
}

type listModule struct {
	Path string
	Main bool
}

type listError struct {
	Err string
}

// Packages loads, parses, and type-checks the module packages matched by
// patterns (plus their intra-module dependencies), rooted at dir.
func Packages(dir string, patterns ...string) (*analysis.Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,Imports,Export,Standard,Module,Error,DepsErrors",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	prog := &analysis.Program{Fset: fset}
	checked := map[string]*types.Package{}
	imp := &progImporter{
		checked: checked,
		gc:      importer.ForCompiler(fset, "gc", exportLookup(exports)),
	}

	var modPath string
	// go list -deps emits dependencies before dependents, so one forward
	// pass type-checks every module package with its imports resolved.
	for _, lp := range pkgs {
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		inModule := lp.Module != nil && lp.Module.Main
		if !inModule {
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
			continue
		}
		if modPath == "" {
			modPath = lp.Module.Path
			if abs, err := filepath.Abs(dir); err == nil {
				prog.Dir = abs
			} else {
				prog.Dir = dir
			}
		}

		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("load: %v", err)
			}
			files = append(files, f)
		}

		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{
			Importer: imp,
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tpkg

		rel := strings.TrimPrefix(lp.ImportPath, modPath)
		rel = strings.TrimPrefix(rel, "/")
		if rel == "" {
			rel = "."
		}
		prog.Packages = append(prog.Packages, &analysis.Package{
			PkgPath: lp.ImportPath,
			RelPath: rel,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	if len(prog.Packages) == 0 {
		return nil, fmt.Errorf("load: no module packages matched %s in %s", strings.Join(patterns, " "), dir)
	}
	return prog, nil
}

// exportLookup adapts a path→file map to the gc importer's lookup shape.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
}

// progImporter resolves imports for source type-checking: module packages
// come from the already-checked set, everything else from export data.
type progImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (pi *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := pi.checked[path]; ok {
		return p, nil
	}
	return pi.gc.Import(path)
}
