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
// binary stream of internal/state.
const SnapshotVersion = 2

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

// TraceSet is one workload spec pre-decoded into immutable per-thread
// instruction traces. Built once per (workload set, seed) and shared
// read-only across every configuration and goroutine of a sweep: NewReplay
// binds any number of simulators to one TraceSet, each replaying the
// decoded records from a flat shared slice instead of re-walking the
// synthetic program's control flow per run.
type TraceSet struct {
	spec   WorkloadSpec
	progs  []*workload.Program
	traces []*workload.Trace
}

// BuildTraceSet decodes the first perThread architectural instructions of
// each of the spec's programs. Undersizing is safe — a replayed run that
// outlives its trace spills onto a live walker bit-identically — so
// perThread is a performance knob, not a correctness bound.
func BuildTraceSet(spec WorkloadSpec, perThread int64) (*TraceSet, error) {
	if len(spec.Names) == 0 {
		return nil, fmt.Errorf("smt: trace set needs at least one workload")
	}
	ts := &TraceSet{
		spec:   WorkloadSpec{Names: slices.Clone(spec.Names), Seed: spec.Seed},
		progs:  make([]*workload.Program, len(spec.Names)),
		traces: make([]*workload.Trace, len(spec.Names)),
	}
	for i, name := range spec.Names {
		prof, err := workload.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := workload.New(prof, spec.Seed, i)
		if err != nil {
			return nil, err
		}
		ts.progs[i] = prog
		ts.traces[i] = workload.BuildTrace(prog, perThread)
	}
	return ts, nil
}

// Spec returns the workload spec the traces decode.
func (ts *TraceSet) Spec() WorkloadSpec {
	return WorkloadSpec{Names: slices.Clone(ts.spec.Names), Seed: ts.spec.Seed}
}

// Records returns the per-thread pre-decoded record count.
func (ts *TraceSet) Records() int64 {
	if len(ts.traces) == 0 {
		return 0
	}
	return int64(ts.traces[0].Len())
}

// Bytes returns the approximate memory footprint of all trace records.
func (ts *TraceSet) Bytes() int64 {
	var n int64
	for _, t := range ts.traces {
		n += t.Bytes()
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
	proc, err := core.New(cfg, ts.progs)
	if err != nil {
		return nil, err
	}
	cursors := make([]*workload.Cursor, len(ts.traces))
	for i, t := range ts.traces {
		cursors[i] = t.NewCursor()
	}
	if err := proc.SetCursors(cursors); err != nil {
		return nil, err
	}
	return &Simulator{proc: proc, cfg: cfg, spec: ts.Spec()}, nil
}
