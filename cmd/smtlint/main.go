// Command smtlint runs the repository's invariant analyzers: determinism
// (byte-identical results), hotpath (zero-allocation steady state), and
// servicehygiene (bounded bodies, cancellable clients). See
// internal/analysis and the README's "Invariants and static analysis"
// section.
//
//	smtlint [-escapes] [packages]     # default ./...
//
// -escapes additionally runs the compiler's escape analysis (`go build
// -gcflags=-m`) over the module and reports heap escapes inside hot-path
// functions.
//
// Exit codes: 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/load"
	"repro/internal/analysis/servicehygiene"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	hotpath.Analyzer,
	servicehygiene.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("smtlint", flag.ContinueOnError)
	escapes := fs.Bool("escapes", false, "also run compiler escape analysis over hot-path functions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *escapes {
		ediags, err := hotpath.Escapes(prog, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		diags = append(diags, ediags...)
		analysis.SortDiagnostics(prog.Fset, diags)
	}
	return report(prog, diags)
}

// report prints findings relative to the working directory when possible.
func report(prog *analysis.Program, diags []analysis.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		name := pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	fmt.Fprintf(os.Stderr, "smtlint: %d finding(s)\n", len(diags))
	return 1
}
