package smt

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/workload"
)

// ModelVersion is the version of what the simulator computes: bump it on
// any change to the checkpoint format or to simulated behaviour. It is
// embedded in every snapshot, and a restore rejects any other version, so a
// format change can never silently install mismatched state. Result keys
// (exp.Job.Key) and checkpoint keys (exp.SnapshotKey) both carry it, so one
// bump makes a durable cache miss its results and checkpoints together.
// Version 2 is the flat binary stream of internal/state; version 3 drops
// its issued-pre-exec list; version 4 installs a cache line when its fill
// lands and walks each MSHR entry's dirty bit; version 5 books each fill
// port and bus as a calendar of windows in time order, lets a store
// merging onto a fill dirty its line, makes a TLB entry usable when its
// walk ends, and walks the windows, the hierarchy's cycle and each TLB
// entry's walk completion; version 6 deflates the stream; version 7 counts
// issued, unresolved branches for SPEC_LAST and holds NO_WRONG_PATH's
// delay past resolution; version 8 drops the per-register producer maps
// (a restore restates their facts from the live ROBs) and renumbers the
// squashed state; version 9 drops each context's unread committed count.
const ModelVersion = 9

// identity walks the snapshot's envelope: enough identity to refuse a
// restore onto the wrong machine — the full-config fingerprint (warmed
// state depends on every configuration field) plus the exact workload set
// and seed. Reading, anything but this simulator's own identity fails.
func (s *Simulator) identity(c *state.Codec) {
	own := s.cfg.Fingerprint()
	fp, names, seed := own, slices.Clone(s.spec.Names), s.spec.Seed
	c.String(&fp)
	state.Slice(c, &names, state.Unbounded, "workload list", (*state.Codec).String)
	state.Int(c, &seed)
	if fp != own || !slices.Equal(names, s.spec.Names) || seed != s.spec.Seed {
		c.Failf("smt: snapshot of config %s, workloads %v seed %d does not match simulator %s, %v seed %d",
			fp, names, seed, own, s.spec.Names, s.spec.Seed)
	}
}

// SaveSnapshot serializes the simulator's complete machine state —
// pipeline, rename tables, queues, memory hierarchy, branch predictor,
// workload positions — at the current cycle boundary. The capture is
// read-only; a simulator restored from the returned bytes steps through
// exactly the cycles this one would. Saving fails while a streaming
// session is active, and for custom (registry-supplied) branch predictors,
// whose tables the snapshot format cannot carry.
func (s *Simulator) SaveSnapshot() ([]byte, error) {
	if s.running.Load() {
		return nil, fmt.Errorf("smt: cannot snapshot while a session is active")
	}
	c := state.NewWriter(ModelVersion)
	s.identity(c)
	if err := s.proc.SaveState(c); err != nil {
		return nil, err
	}
	return c.Bytes()
}

// RestoreSnapshot installs a snapshot onto a freshly built simulator. The
// simulator must carry the identical configuration and workload spec the
// snapshot was saved from and must not have stepped; any mismatch — or a
// corrupt, truncated or internally inconsistent snapshot — is an error,
// after which the simulator is in an undefined state and must be discarded
// (rebuild and run cold).
func (s *Simulator) RestoreSnapshot(data []byte) error {
	if s.running.Load() {
		return fmt.Errorf("smt: cannot restore while a session is active")
	}
	c := state.NewReader(data, ModelVersion)
	s.identity(c) // a failure here sticks: the core walk below is then a no-op
	err := s.proc.RestoreState(c)
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("smt: snapshot rejected: %w", err)
	}
	return nil
}

// BuildTrace decodes the first records architectural instructions of the
// program benchmark name runs in hardware context ctx under seed. A
// context's program is a pure function of (benchmark, seed, context) — the
// same at every machine width and under every configuration — so one trace
// serves every job whose workload spec puts that benchmark in that context.
// It is the one place a workload spec's names become programs.
func BuildTrace(name string, seed uint64, ctx int, records int64) (*workload.Trace, error) {
	prof, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := workload.New(prof, seed, ctx)
	if err != nil {
		return nil, err
	}
	return workload.BuildTrace(prog, records), nil
}

// TraceSet is one workload spec's per-context traces, shared read-only
// across every configuration and goroutine of a sweep: NewReplay binds any
// number of simulators to one TraceSet, each replaying the recorded branch
// directions and addresses over the shared code instead of re-resolving the
// synthetic program's behaviour per run. The traces may differ in length;
// a replayed run that outlives one spills onto a live walker
// bit-identically.
type TraceSet struct {
	spec   WorkloadSpec
	traces []*workload.Trace
}

// NewTraceSet assembles spec's trace set from one trace per hardware
// context, in context order. A trace of another benchmark, seed or context
// is rejected: replaying it would simulate the wrong program without any
// other symptom.
func NewTraceSet(spec WorkloadSpec, traces []*workload.Trace) (*TraceSet, error) {
	if len(spec.Names) == 0 {
		return nil, fmt.Errorf("smt: trace set needs at least one workload")
	}
	if len(traces) != len(spec.Names) {
		return nil, fmt.Errorf("smt: %d context traces for %d workloads", len(traces), len(spec.Names))
	}
	for i, tr := range traces {
		if p := tr.Program(); p.Name != spec.Names[i] || p.Seed != spec.Seed || p.ASID != i {
			return nil, fmt.Errorf("smt: context %d runs %s seed %d, got the trace of %s seed %d context %d",
				i, spec.Names[i], spec.Seed, p.Name, p.Seed, p.ASID)
		}
	}
	return &TraceSet{
		spec:   WorkloadSpec{Names: slices.Clone(spec.Names), Seed: spec.Seed},
		traces: slices.Clone(traces),
	}, nil
}

// BuildTraceSet decodes the first perThread architectural instructions of
// each of the spec's programs. Undersizing is safe — a replayed run that
// outlives its trace spills onto a live walker bit-identically — so
// perThread is a performance knob, not a correctness bound.
func BuildTraceSet(spec WorkloadSpec, perThread int64) (*TraceSet, error) {
	traces := make([]*workload.Trace, len(spec.Names))
	for i, name := range spec.Names {
		tr, err := BuildTrace(name, spec.Seed, i, perThread)
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return NewTraceSet(spec, traces)
}

// Spec returns the workload spec the traces decode.
func (ts *TraceSet) Spec() WorkloadSpec {
	return WorkloadSpec{Names: slices.Clone(ts.spec.Names), Seed: ts.spec.Seed}
}

// Records returns the pre-decoded record count every context has: the
// minimum over the set's traces.
func (ts *TraceSet) Records() int64 {
	n := ts.traces[0].Len()
	for _, tr := range ts.traces[1:] {
		n = min(n, tr.Len())
	}
	return int64(n)
}

// Bytes returns the approximate memory all of the set's traces pin.
func (ts *TraceSet) Bytes() int64 {
	var n int64
	for _, tr := range ts.traces {
		n += tr.Bytes()
	}
	return n
}

// NewReplay builds a simulator over the trace set's pre-decoded programs:
// identical to New(cfg, ts.Spec()) in every simulated bit, but each
// hardware context fetches from the shared trace for as long as it lasts
// instead of walking its program live. It is the one way a Simulator is
// built. cfg.Threads must match the trace set's workload count.
func NewReplay(cfg Config, ts *TraceSet) (*Simulator, error) {
	if err := validateSpec(cfg, ts.spec); err != nil {
		return nil, err
	}
	proc, err := core.New(cfg, ts.traces)
	if err != nil {
		return nil, err
	}
	return &Simulator{proc: proc, cfg: cfg, spec: ts.Spec()}, nil
}
