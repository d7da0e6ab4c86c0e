package branch

import (
	"fmt"

	"repro/internal/registry"
)

// Builder constructs a custom direction engine for a validated
// configuration. Builders run once per simulated machine, at construction —
// never on the cycle path.
type Builder func(cfg Config) (DirEngine, error)

// scheme is what a predictor name stands for: the direction engine that
// fills the standard frame's slot, and the frame's return mode.
type scheme struct {
	engine func(cfg Config) (dirEngine, error)
	ret    retMode
}

// reg maps predictor names to schemes, listed built-ins first, then caller
// registrations. The empty name resolves to the default predictor,
// matching Config's zero value.
var reg = registry.Named[scheme]{Pkg: "branch", Kind: "predictor", Default: DefaultPredictor}

// Register adds a predictor under name: the engine b builds, in the
// standard frame (thread-tagged BTB, per-thread history registers and
// return stacks, RAS with BTB fallback for returns — the built-ins'
// default variant). Names are permanent within a process: re-registering
// one fails.
func Register(name string, b Builder) error {
	if b == nil {
		return fmt.Errorf("branch: nil predictor builder")
	}
	return reg.Register(name, scheme{ret: retFull, engine: func(cfg Config) (dirEngine, error) {
		e, err := b(cfg)
		if err != nil {
			return nil, err
		}
		if e == nil {
			return nil, fmt.Errorf("branch: predictor %q built a nil direction engine", name)
		}
		return customDir{e: e}, nil
	}})
}

// Registered reports whether name is a registered predictor (the empty
// name is the default predictor).
func Registered(name string) bool {
	_, ok := reg.Lookup(name)
	return ok
}

// Names returns every registered predictor name in registration order
// (built-ins first).
func Names() []string { return reg.Names() }

// New builds the predictor cfg names (the default when unnamed) for a
// machine of threads hardware contexts.
func New(cfg Config, threads int) (*Unit, error) {
	if threads < 1 {
		return nil, fmt.Errorf("branch: %d threads, want >= 1", threads)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, _ := reg.Lookup(cfg.Predictor) // Validate checked the name
	dir, err := s.engine(cfg)
	if err != nil {
		return nil, err
	}
	return newUnit(cfg, threads, dir, s.ret), nil
}
