package smt

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/workload"
)

// SnapshotVersion is the serialization version embedded in every snapshot
// (and in its cache key); a restore rejects any other version, so a format
// change can never silently install mismatched state. Version 2 is the flat
// binary stream of internal/state; version 3 drops its issued-pre-exec list.
const SnapshotVersion = 3

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
	c := state.NewWriter(SnapshotVersion)
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
	c := state.NewReader(data, SnapshotVersion)
	s.identity(c) // a failure here sticks: the core walk below is then a no-op
	err := s.proc.RestoreState(c)
	if err == nil {
		err = c.Close()
	}
	if err != nil {
		return fmt.Errorf("smt: snapshot rejected: %w", err)
	}
	return nil
}

// ContextTrace is one hardware context's program pre-decoded into an
// immutable instruction trace. A context's program is a pure function of
// (benchmark, seed, context index) — the same at every machine width and
// under every configuration — so one ContextTrace serves every job whose
// workload spec puts that benchmark in that context.
type ContextTrace struct {
	name  string
	seed  uint64
	ctx   int
	trace *workload.Trace
}

// BuildContextTrace decodes the first records architectural instructions
// of the program benchmark name runs in hardware context ctx under seed.
func BuildContextTrace(name string, seed uint64, ctx int, records int64) (*ContextTrace, error) {
	prof, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := workload.New(prof, seed, ctx)
	if err != nil {
		return nil, err
	}
	return &ContextTrace{name: name, seed: seed, ctx: ctx, trace: workload.BuildTrace(prog, records)}, nil
}

// Records returns the pre-decoded record count.
func (ct *ContextTrace) Records() int64 { return int64(ct.trace.Len()) }

// Bytes returns the approximate memory footprint of the trace records.
func (ct *ContextTrace) Bytes() int64 { return ct.trace.Bytes() }

// TraceSet is one workload spec's per-context traces, shared read-only
// across every configuration and goroutine of a sweep: NewReplay binds any
// number of simulators to one TraceSet, each replaying the decoded records
// from flat shared slices instead of re-walking the synthetic program's
// control flow per run. The traces may differ in length; a replayed run
// that outlives one spills onto a live walker bit-identically.
type TraceSet struct {
	spec   WorkloadSpec
	traces []*ContextTrace
}

// NewTraceSet assembles spec's trace set from one ContextTrace per
// hardware context, in context order. A trace built for another benchmark,
// seed or context is rejected: replaying it would simulate the wrong
// program without any other symptom.
func NewTraceSet(spec WorkloadSpec, traces []*ContextTrace) (*TraceSet, error) {
	if len(spec.Names) == 0 {
		return nil, fmt.Errorf("smt: trace set needs at least one workload")
	}
	if len(traces) != len(spec.Names) {
		return nil, fmt.Errorf("smt: %d context traces for %d workloads", len(traces), len(spec.Names))
	}
	for i, ct := range traces {
		if ct.name != spec.Names[i] || ct.seed != spec.Seed || ct.ctx != i {
			return nil, fmt.Errorf("smt: context %d runs %s seed %d, got the trace of %s seed %d context %d",
				i, spec.Names[i], spec.Seed, ct.name, ct.seed, ct.ctx)
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
	traces := make([]*ContextTrace, len(spec.Names))
	for i, name := range spec.Names {
		ct, err := BuildContextTrace(name, spec.Seed, i, perThread)
		if err != nil {
			return nil, err
		}
		traces[i] = ct
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
	n := ts.traces[0].Records()
	for _, ct := range ts.traces[1:] {
		n = min(n, ct.Records())
	}
	return n
}

// Bytes returns the approximate memory footprint of all trace records.
func (ts *TraceSet) Bytes() int64 {
	var n int64
	for _, ct := range ts.traces {
		n += ct.Bytes()
	}
	return n
}

// NewReplay builds a simulator over the trace set's pre-decoded programs:
// identical to New(cfg, ts.Spec()) in every simulated bit, but each
// hardware context fetches from the shared trace instead of walking its
// program live. cfg.Threads must match the trace set's workload count.
func NewReplay(cfg Config, ts *TraceSet) (*Simulator, error) {
	if err := validateSpec(cfg, ts.spec); err != nil {
		return nil, err
	}
	progs := make([]*workload.Program, len(ts.traces))
	cursors := make([]*workload.Cursor, len(ts.traces))
	for i, ct := range ts.traces {
		progs[i] = ct.trace.Program()
		cursors[i] = ct.trace.NewCursor()
	}
	proc, err := core.New(cfg, progs)
	if err != nil {
		return nil, err
	}
	if err := proc.SetCursors(cursors); err != nil {
		return nil, err
	}
	return &Simulator{proc: proc, cfg: cfg, spec: ts.Spec()}, nil
}
