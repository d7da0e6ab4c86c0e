package branch

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/registry"
)

// Predictor is the branch prediction extension point: everything the fetch
// stage consults per control instruction, plus the squash-restore protocol
// the core drives on mispredicts.
//
// Contract: every method must be deterministic and allocation-free — the
// fetch stage calls Direction/Target/Return every cycle on the simulator's
// zero-allocation hot path, and the byte-identical-results guarantee flows
// through each implementation. thread is always in [0, Config().Threads).
type Predictor interface {
	// Direction predicts taken/not-taken for a conditional branch at pc,
	// along with a confidence estimate. A low-confidence prediction feeds
	// the variable-fetch-rate throttle; predictors without a meaningful
	// estimator report confident=false.
	Direction(thread int, pc int64) (taken, confident bool)

	// Target looks up the BTB for (thread, pc); ok is false on a miss.
	Target(thread int, pc int64) (target int64, ok bool)

	// SpeculateHistory shifts the predicted outcome of a conditional branch
	// into the thread's global history register at fetch time, returning
	// the previous value so the caller can checkpoint it for squash
	// recovery.
	SpeculateHistory(thread int, taken bool) (checkpoint uint32)

	// RestoreHistory rolls the thread's global history back to a checkpoint
	// taken by SpeculateHistory (used when squashing wrong-path
	// instructions).
	RestoreHistory(thread int, checkpoint uint32)

	// History returns the thread's current global history register value.
	History(thread int) uint32

	// PushReturn records a call's return address (at fetch time). ok is
	// false when the predictor does not maintain a return stack; otherwise
	// cp is the checkpoint for squash recovery.
	PushReturn(thread int, returnPC int64) (cp RASCheckpoint, ok bool)

	// Return predicts the target of a return instruction at pc. hasCP is
	// true when the prediction popped the return stack, in which case cp
	// restores it on a squash (a BTB-fallback prediction mutates no
	// checkpointed state).
	Return(thread int, pc int64) (target int64, ok bool, cp RASCheckpoint, hasCP bool)

	// RestoreRAS undoes a single push or pop using its checkpoint.
	// Checkpoints must be restored in reverse order of creation (the
	// squash walk is youngest-first, which satisfies this).
	RestoreRAS(thread int, cp RASCheckpoint)

	// RASDepth returns the live entries in the thread's return stack.
	RASDepth(thread int) int

	// Update trains the predictor at branch commit: the direction engine
	// moves toward the actual outcome and, for taken control transfers,
	// the BTB learns the target. history is the pre-branch history
	// checkpoint, so training uses the same index the prediction used.
	Update(thread int, pc int64, class isa.Class, taken bool, target int64, history uint32)

	// Config returns the predictor's configuration.
	Config() Config
}

// RASCheckpoint captures enough return-stack state to undo one push or pop.
type RASCheckpoint struct {
	Top   int
	Size  int
	Saved int64
}

// Builder constructs a predictor for a validated configuration. Builders
// run once per simulated machine, at construction — never on the cycle
// path.
type Builder func(cfg Config) (Predictor, error)

// reg maps predictor names to builders, listed built-ins first, then
// caller registrations. The empty name resolves to the default predictor,
// matching Config's zero value.
var reg = registry.Named[Builder]{Pkg: "branch", Kind: "predictor", Default: DefaultPredictor}

// Register adds a predictor builder under name. Names are permanent within
// a process: re-registering one fails.
func Register(name string, b Builder) error {
	if b == nil {
		return fmt.Errorf("branch: nil predictor builder")
	}
	return reg.Register(name, b)
}

// MustRegister is Register for init-time registrations.
func MustRegister(name string, b Builder) {
	if err := Register(name, b); err != nil {
		panic(err)
	}
}

// Lookup returns the builder registered under name (the default predictor
// when empty).
func Lookup(name string) (Builder, bool) { return reg.Lookup(name) }

// Names returns every registered predictor name in registration order
// (built-ins first).
func Names() []string { return reg.Names() }

// New builds the predictor cfg names (the default when unnamed).
func New(cfg Config) (Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, ok := Lookup(cfg.Predictor)
	if !ok {
		return nil, fmt.Errorf("branch: unknown predictor %q (registered: %v)", cfg.Predictor, Names())
	}
	return b(cfg)
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}
