package exp

import (
	"fmt"
	"io"

	"repro/internal/registry"
	"repro/smt"
)

// PointSpec is one machine configuration the engine measures: a cell of an
// experiment's grid before rotation fan-out. Series groups points into the
// lines of a figure or the row groups of a table.
type PointSpec struct {
	Series  string
	Label   string
	Threads int
	Config  smt.Config
}

// Shape declares how many series and total points an experiment's grid is
// expected to produce; the registry test and the runner validate it so a
// registry edit that silently drops a configuration fails loudly.
type Shape struct {
	Series int
	Points int
}

// Experiment is one named entry of the registry: a paper table or figure,
// its config generator, the expected shape of its grid, and how its result
// is laid out as text. Everything known about an experiment is a field here,
// set in its one Register literal.
type Experiment struct {
	Name   string
	Title  string
	Points func() []PointSpec
	Shape  Shape
	// Print lays a result of this experiment out the way the paper does.
	// Register and the ad-hoc comparisons fill a nil Print with the
	// series × threads table.
	Print func(io.Writer, *ExperimentResult)
}

// Grid materializes the experiment's point list and checks it against the
// declared shape and every point's machine against Config.Validate, so an
// unbuildable machine is an error here rather than a panic in a runner.
func (e Experiment) Grid() ([]PointSpec, error) {
	pts := e.Points()
	series := map[string]bool{}
	for _, p := range pts {
		if err := p.Config.Validate(); err != nil {
			return nil, fmt.Errorf("exp: %s point %s at %d threads: %w", e.Name, p.Series, p.Threads, err)
		}
		series[p.Series] = true
	}
	if len(series) != e.Shape.Series || len(pts) != e.Shape.Points {
		return nil, fmt.Errorf("exp: %s grid is %d series / %d points, registry declares %d / %d",
			e.Name, len(series), len(pts), e.Shape.Series, e.Shape.Points)
	}
	return pts, nil
}

// experiments is the registry, in registration order; order is part of the
// engine's deterministic output contract.
var experiments = registry.Named[Experiment]{Pkg: "exp", Kind: "experiment"}

// Register adds an experiment to the registry. It panics on duplicate or
// empty names; registration happens from package init only.
func Register(e Experiment) {
	if e.Points == nil {
		panic("exp: Register needs a Points generator")
	}
	if e.Print == nil {
		e.Print = printSeries
	}
	if err := experiments.Register(e.Name, e); err != nil {
		panic(err)
	}
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	return experiments.Lookup(name)
}

// Experiments returns all registered experiments in registration order.
func Experiments() []Experiment {
	names := experiments.Names()
	out := make([]Experiment, 0, len(names))
	for _, name := range names {
		e, _ := experiments.Lookup(name)
		out = append(out, e)
	}
	return out
}

// Names returns the registered experiment names in registration order.
func Names() []string {
	return experiments.Names()
}
