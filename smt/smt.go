// Package smt is the public API of the simultaneous multithreading
// processor simulator reproducing Tullsen et al., "Exploiting Choice:
// Instruction Fetch and Issue on an Implementable Simultaneous
// Multithreading Processor" (ISCA 1996).
//
// A Simulator wraps one machine configuration (Config) running one
// multiprogrammed workload (a set of synthetic SPEC92-like benchmarks, one
// per hardware context). The usual flow:
//
//	cfg := smt.DefaultConfig(8)
//	cfg.FetchPolicy = smt.FetchICount
//	cfg.FetchThreads = 2 // the paper's ICOUNT.2.8
//	sim, err := smt.New(cfg, smt.WorkloadMix(8, 0, 1))
//	...
//	res := sim.Run(1_000_000)
//	fmt.Println(res.IPC)
//
// Fetch and issue policies are named, registered strategies — the
// "exploiting choice" of the title is an extension point. A policy is
// data: a name, a comparison (or, for issue, a flag), and the feedback it
// reads. Config carries policy names; RegisterFetchPolicy and
// RegisterIssuePolicy add new ones (see FetchPolicyFunc), which then work
// everywhere a built-in does: configs, the experiment engine, CLI flags,
// smtd sweeps, and the content-addressed result cache. Branch predictors
// are registered the same way: a predictor is a direction engine
// (DirEngine) in the standard BTB/history/return-stack frame.
//
// For interval-level observability, Start opens a streaming run session
// that emits delta + cumulative Snapshots while the simulation advances;
// Run and Warmup are thin wrappers over it.
//
// The paper's measurement methodology (Section 3) averages several runs with
// rotated benchmark-to-thread assignments; Experiment in package exp drives
// that, and cmd/experiments regenerates every table and figure.
//
// Simulations are deterministic functions of (Config, workload rotation,
// seed, budgets) — the property the surrounding tooling leans on: results
// are content-addressed and cached (Config.Fingerprint), and sweeps
// distribute across worker processes (cmd/smtd's coordinator/worker
// modes) with output byte-identical to a single-process run.
package smt

import (
	"fmt"
	"sync/atomic"

	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Config describes one machine. It re-exports the core configuration; see
// DefaultConfig and Superscalar for the paper's two baselines.
type Config = core.Config

// SpecMode selects the Section 7 speculation restrictions.
type SpecMode = core.SpecMode

// Speculation modes (Section 7).
const (
	SpecFull         = core.SpecFull
	SpecNoPassBranch = core.SpecNoPassBranch
	SpecNoWrongPath  = core.SpecNoWrongPath
)

// FetchAlg names a registered fetch policy; IssueAlg names a registered
// issue policy. Config's FetchPolicy/IssuePolicy fields carry these, so a
// policy registered under a name is selected by assigning that name.
type (
	FetchAlg = policy.FetchAlg
	IssueAlg = policy.IssueAlg
)

// Fetch thread-choice policies (Section 5.2), plus the two composite
// policies shipped beyond the paper.
const (
	FetchRR        = policy.RR
	FetchBRCount   = policy.BRCount
	FetchMissCount = policy.MissCount
	FetchICount    = policy.ICount
	FetchIQPosn    = policy.IQPosn

	// FetchICountBRCount is ICOUNT with unresolved-branch tie-break.
	FetchICountBRCount = policy.ICountBRCount
	// FetchICountWeightedMiss is ICOUNT + 2*MISSCOUNT.
	FetchICountWeightedMiss = policy.ICountWeightedMiss
)

// Issue policies (Section 6).
const (
	IssueOldestFirst = policy.OldestFirst
	IssueOptLast     = policy.OptLast
	IssueSpecLast    = policy.SpecLast
	IssueBranchFirst = policy.BranchFirst
)

// Policy extension points, re-exported from the internal policy layer so
// custom strategies can be written against the public API alone.
type (
	// FetchPolicy orders hardware contexts for fetch each cycle: a name, a
	// comparison (nil is round-robin) and the feedback fields it reads.
	FetchPolicy = policy.Fetch
	// IssuePolicy orders ready instructions for issue each cycle: a name,
	// at most one of a first-group flag and a comparison (neither is
	// oldest-first), and the instruction facts it reads.
	IssuePolicy = policy.Issue
	// FeedbackNeeds and IssueNeeds declare the fields a policy reads; the
	// core maintains only those.
	FeedbackNeeds = policy.FeedbackNeeds
	IssueNeeds    = policy.IssueNeeds
	// ThreadFeedback carries the per-thread counters fetch policies consult.
	ThreadFeedback = policy.ThreadFeedback
	// IssueInfo describes one ready instruction for issue ordering.
	IssueInfo = policy.IssueInfo
)

// RegisterFetchPolicy adds a custom fetch policy to the global registry.
// Once registered, the policy's name is valid in Config.FetchPolicy — and
// therefore in experiment grids, CLI flags, smtd inline-grid configs, and
// cache keys (results are content-addressed by policy name). Names are
// permanent within a process; registering a taken name fails.
func RegisterFetchPolicy(p FetchPolicy) error { return policy.RegisterFetch(p) }

// RegisterIssuePolicy adds a custom issue policy to the global registry;
// same rules as RegisterFetchPolicy, and a policy setting both First and
// Less is refused.
func RegisterIssuePolicy(p IssuePolicy) error { return policy.RegisterIssue(p) }

// FetchPolicies returns every registered fetch policy name in registration
// order (the paper's five built-ins first, then the composites, then
// caller registrations).
func FetchPolicies() []string { return policy.FetchNames() }

// IssuePolicies returns every registered issue policy name in registration
// order.
func IssuePolicies() []string { return policy.IssueNames() }

// LookupFetchPolicy resolves a registered fetch policy name.
func LookupFetchPolicy(name string) (FetchPolicy, bool) { return policy.LookupFetch(name) }

// LookupIssuePolicy resolves a registered issue policy name.
func LookupIssuePolicy(name string) (IssuePolicy, bool) { return policy.LookupIssue(name) }

// FetchPolicyFunc builds a fetch policy from a feedback comparison (best
// thread first, ties round-robin) — the shape of every policy in the
// paper. It declares that less may read every counter;
// readsQueuePositions says whether it also consults
// ThreadFeedback.IQPosn, which costs a per-cycle queue scan to fill. A
// FetchPolicy literal can declare tighter FeedbackNeeds.
func FetchPolicyFunc(name string, less func(a, b ThreadFeedback) bool, readsQueuePositions bool) FetchPolicy {
	return FetchPolicy{Name: name, Less: less,
		Needs: FeedbackNeeds{ICount: true, BrCount: true, MissCount: true, IQPosn: readsQueuePositions, LowConf: true}}
}

// IssuePolicyFunc builds an issue policy from a comparison; less must be
// a strict weak ordering and should break ties oldest-first (compare Age
// last). readsOptimism declares whether less consults IssueInfo.Optimistic
// (two register-file probes per candidate); the other flags are always
// filled for policies built here.
func IssuePolicyFunc(name string, less func(a, b IssueInfo) bool, readsOptimism bool) IssuePolicy {
	return IssuePolicy{Name: name, Less: less,
		Needs: IssueNeeds{Optimistic: readsOptimism, Speculative: true, Branch: true}}
}

// Branch-predictor extension points, re-exported from the internal branch
// layer. Like policies, predictors are named and registered:
// Config.Branch.Predictor carries the name, and a registered name works
// everywhere — experiment grids, CLI flags, smtd inline-grid configs, and
// the content-addressed result cache.
type (
	// BranchConfig parameterizes the branch-prediction hardware
	// (Config.Branch); its Predictor field names the registered scheme.
	BranchConfig = branch.Config
	// DirEngine is what a custom predictor is: the conditional direction
	// guess (with confidence) and its training step. The standard frame —
	// thread-tagged BTB, per-thread history registers and return stacks —
	// is built around it.
	DirEngine = branch.DirEngine
	// PredictorBuilder constructs a DirEngine for a validated config.
	PredictorBuilder = branch.Builder
)

// Built-in branch predictor names (Config.Branch.Predictor). Each also
// registers ".rasonly" (no BTB fallback for returns) and ".noret" (no
// return address stack) variants, e.g. "gshare.noret".
const (
	// PredGshare is McFarling's gshare, the paper's scheme (default).
	PredGshare = branch.Gshare
	// PredSmiths is Smith's bimodal predictor: 2-bit counters, no history.
	PredSmiths = branch.Smiths
	// PredStatic is backward-taken/forward-not-taken.
	PredStatic = branch.Static
	// PredGskewed is the three-bank skewed-index majority-vote predictor.
	PredGskewed = branch.Gskewed
	// PredNone predicts every conditional branch not-taken.
	PredNone = branch.None
	// PredPerfect is oracle prediction (equivalent to PerfectBranchPred).
	PredPerfect = branch.Perfect
)

// RegisterPredictor adds a custom branch predictor to the global registry:
// the direction engine b builds, in the standard frame.
//
//	smt.RegisterPredictor("hybrid", func(cfg smt.BranchConfig) (smt.DirEngine, error) {
//	    return newHybridEngine(cfg), nil
//	})
//
// Once registered, the name is valid in Config.Branch.Predictor. Names are
// permanent within a process; registering a taken name fails. Engines must
// be deterministic and allocation-free in Predict and Update — they run on
// the simulator's zero-allocation cycle loop. A machine with a custom
// engine cannot be checkpointed (its tables are opaque), so sweeps run its
// warmup every time.
func RegisterPredictor(name string, b PredictorBuilder) error { return branch.Register(name, b) }

// Predictors returns every registered predictor name in registration order
// (the built-ins and their return-stack variants first, then caller
// registrations).
func Predictors() []string { return branch.Names() }

// HasPredictor reports whether name is a registered predictor.
func HasPredictor(name string) bool { return branch.Registered(name) }

// DefaultConfig returns the paper's baseline SMT machine with the given
// number of hardware contexts (RR.1.8 fetch, OLDEST_FIRST issue, Table 1/2
// resources).
func DefaultConfig(threads int) Config { return core.DefaultConfig(threads) }

// Superscalar returns the unmodified wide-issue superscalar baseline
// (Figure 2a pipeline, one context).
func Superscalar() Config { return core.Superscalar() }

// Benchmarks returns the names of the eight workload programs (the paper's
// SPEC92 subset plus TeX).
func Benchmarks() []string {
	ps := workload.Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// WorkloadSpec names the benchmarks to run, one per hardware context.
type WorkloadSpec struct {
	Names []string
	Seed  uint64
}

// WorkloadMix builds a spec of `threads` distinct benchmarks starting at
// `rotate` in the canonical order — the paper composes each data point from
// runs with different benchmark combinations; varying rotate reproduces
// that. Any rotate is in range: the order is a ring, so -1 starts at the
// last benchmark.
func WorkloadMix(threads, rotate int, seed uint64) WorkloadSpec {
	names := Benchmarks()
	spec := WorkloadSpec{Seed: seed}
	first := rotate % len(names)
	if first < 0 {
		first += len(names)
	}
	for i := 0; i < threads; i++ {
		spec.Names = append(spec.Names, names[(first+i)%len(names)])
	}
	return spec
}

// validateSpec rejects workload specs the paper's methodology would never
// produce: a benchmark name with no profile, or the same benchmark loaded
// into two contexts while distinct programs are available (the paper's
// mixes are always distinct programs; silent duplicates skew rotation
// comparisons). Duplicates are allowed only when the machine has more
// contexts than there are benchmarks, where they are unavoidable.
func validateSpec(cfg Config, spec WorkloadSpec) error {
	if len(spec.Names) != cfg.Threads {
		return fmt.Errorf("smt: workload names %d != threads %d", len(spec.Names), cfg.Threads)
	}
	if cfg.Threads <= len(Benchmarks()) {
		seen := make(map[string]bool, len(spec.Names))
		for _, name := range spec.Names {
			if seen[name] {
				return fmt.Errorf("smt: benchmark %q appears more than once in %v; the paper's mixes are distinct programs (valid names: %v)",
					name, spec.Names, Benchmarks())
			}
			seen[name] = true
		}
	}
	return nil
}

// Simulator is one machine instance bound to one workload.
type Simulator struct {
	proc    *core.Processor
	cfg     Config
	spec    WorkloadSpec
	running atomic.Bool // an unfinished streaming session owns the machine
}

// New builds a simulator: cfg.Threads programs are generated per spec and
// loaded one per hardware context. Unknown benchmark names and duplicate
// names (while distinct benchmarks remain available) are rejected.
func New(cfg Config, spec WorkloadSpec) (*Simulator, error) {
	if err := validateSpec(cfg, spec); err != nil {
		return nil, err
	}
	programs := make([]*workload.Program, cfg.Threads)
	for i, name := range spec.Names {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := workload.New(prof, spec.Seed, i)
		if err != nil {
			return nil, err
		}
		programs[i] = prog
	}
	proc, err := core.New(cfg, programs)
	if err != nil {
		return nil, err
	}
	return &Simulator{proc: proc, cfg: cfg, spec: spec}, nil
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(cfg Config, spec WorkloadSpec) *Simulator {
	s, err := New(cfg, spec)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the simulator's machine configuration.
func (s *Simulator) Config() Config { return s.cfg }

// RawStats exposes the core's full counter set for detailed analysis; the
// fields are documented in the core package.
func (s *Simulator) RawStats() core.Stats { return s.proc.Stats() }

// cacheLevels orders Results.Caches: L1I, L1D, L2, L3.
var cacheLevels = [4]mem.Level{mem.L1I, mem.L1D, mem.L2, mem.L3}

// observation is one capture of every counter Results derives from: the
// core statistics plus the four cache levels. Subtracting two observations
// of the same run yields the interval between them, which is how streaming
// sessions compute delta Results.
type observation struct {
	st     core.Stats
	caches [4]mem.Stats
}

func (s *Simulator) observe() observation {
	o := observation{st: s.proc.Stats()}
	m := s.proc.Mem()
	for i, l := range cacheLevels {
		o.caches[i] = m.CacheStats(l)
	}
	return o
}

// sub returns the interval observation o - base.
func (o observation) sub(base observation) observation {
	d := observation{st: o.st.Sub(base.st)}
	for i := range o.caches {
		d.caches[i] = o.caches[i].Sub(base.caches[i])
	}
	return d
}

// results derives the full metric set from an observation — of a whole run
// or of one interval; every rate is computed over the observation's own
// cycle and instruction counts.
func (o observation) results() Results {
	st := o.st
	res := Results{
		Cycles:            st.Cycles,
		Committed:         st.Committed,
		IPC:               st.IPC(),
		CommittedByThread: st.CommittedByThread,
		BranchMispredict:  st.CondMispredictRate(),
		JumpMispredict:    st.JumpMispredictRate(),
		WrongPathFetched:  st.WrongPathFetchedFrac(),
		WrongPathIssued:   st.WrongPathIssuedFrac(),
		OptimisticSquash:  st.OptimisticSquashFrac(),
		UselessIssue:      st.UselessIssueFrac(),
		IntIQFull:         st.IntIQFullFrac(),
		FPIQFull:          st.FPIQFullFrac(),
		OutOfRegisters:    st.OutOfRegFrac(),
		AvgQueuePop:       st.AvgQueuePopulation(),
		UsefulFetchPerCyc: st.UsefulFetchPerCycle(),

		FetchCyclesFrac:       st.CycleFrac(st.FetchCycles),
		FetchLostBackPressure: st.CycleFrac(st.FetchLostBackPressure),
		FetchLostNoThread:     st.CycleFrac(st.FetchLostNoThread),
		FetchLostIMiss:        st.CycleFrac(st.FetchLostIMiss),
		FetchLostBankConflict: st.CycleFrac(st.FetchLostBankConflict),
	}
	for i, cs := range o.caches {
		res.Caches[i] = CacheResult{
			Accesses: cs.Accesses,
			Misses:   cs.Misses,
			MissRate: cs.MissRate(),
			PerK:     st.PerK(cs.Misses),
		}
	}
	return res
}

// Results returns the current statistics snapshot.
func (s *Simulator) Results() Results {
	return s.observe().results()
}

// CacheResult summarizes one cache level. The JSON tags are part of the
// experiment engine's versioned result schema (exp.SchemaVersion); renaming
// one is a schema change.
type CacheResult struct {
	Accesses int64   `json:"accesses"`
	Misses   int64   `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	PerK     float64 `json:"per_k"` // misses per thousand committed instructions
}

// Results carries every metric the paper's tables report. As with
// CacheResult, the JSON tags are part of the experiment engine's versioned
// result schema.
type Results struct {
	Cycles            int64   `json:"cycles"`
	Committed         int64   `json:"committed"`
	IPC               float64 `json:"ipc"`
	CommittedByThread []int64 `json:"committed_by_thread"`

	BranchMispredict float64 `json:"branch_mispredict"`
	JumpMispredict   float64 `json:"jump_mispredict"`
	WrongPathFetched float64 `json:"wrong_path_fetched"`
	WrongPathIssued  float64 `json:"wrong_path_issued"`
	OptimisticSquash float64 `json:"optimistic_squash"`
	UselessIssue     float64 `json:"useless_issue"`

	IntIQFull      float64 `json:"int_iq_full"`
	FPIQFull       float64 `json:"fp_iq_full"`
	OutOfRegisters float64 `json:"out_of_registers"`
	AvgQueuePop    float64 `json:"avg_queue_pop"`

	UsefulFetchPerCyc float64 `json:"useful_fetch_per_cycle"`

	// Fetch availability: every cycle lands in exactly one of these five
	// buckets (fractions of all cycles; they sum to 1), splitting lost
	// fetch bandwidth by cause — the paper's "fetch throughput" bottleneck
	// discussion around Table 3.
	FetchCyclesFrac       float64 `json:"fetch_cycles_frac"`        // >=1 instruction delivered
	FetchLostBackPressure float64 `json:"fetch_lost_back_pressure"` // decode latch occupied (IQ clog)
	FetchLostNoThread     float64 `json:"fetch_lost_no_thread"`     // every thread stalled or I-missing
	FetchLostIMiss        float64 `json:"fetch_lost_imiss"`         // selected thread missed in the I-cache
	FetchLostBankConflict float64 `json:"fetch_lost_bank_conflict"` // lost to cache-fill bank conflicts

	// Caches indexes L1I, L1D, L2, L3 in order.
	Caches [4]CacheResult `json:"caches"`
}

// CacheNames labels Results.Caches entries.
var CacheNames = [4]string{"ICache", "DCache", "L2", "L3"}
