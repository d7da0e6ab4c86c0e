package smt

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// snapshotMatrix spans the machine-state space a checkpoint must carry:
// direction predictors with different table shapes, and fetch policies with
// different per-thread counter dependencies.
var snapshotPredictors = []string{PredGshare, PredSmiths, PredGskewed}
var snapshotPolicies = []FetchAlg{FetchICount, FetchRR, FetchBRCount}

func snapshotConfig(pred string, alg FetchAlg) Config {
	cfg := DefaultConfig(4)
	cfg.Branch.Predictor = pred
	cfg.FetchPolicy = alg
	cfg.FetchThreads = 2
	return cfg
}

// mustRestore restores data onto sim and checks the walk is symmetric: what
// the restored machine saves is byte-for-byte what it was given, so no field
// is written without being read back or the other way round.
func mustRestore(t *testing.T, sim *Simulator, data []byte) {
	t.Helper()
	if err := sim.RestoreSnapshot(data); err != nil {
		t.Fatal(err)
	}
	again, err := sim.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("Save -> Restore -> Save changed the snapshot (%d -> %d bytes)", len(data), len(again))
	}
}

// The core acceptance property: save at the warmup boundary, restore onto a
// fresh machine, and the measured run is bit-for-bit the uninterrupted run.
func TestSnapshotRoundTripMatchesColdRun(t *testing.T) {
	const warm, meas = 2_000, 16_000
	for _, pred := range snapshotPredictors {
		for _, alg := range snapshotPolicies {
			t.Run(pred+"/"+string(alg), func(t *testing.T) {
				cfg := snapshotConfig(pred, alg)
				spec := WorkloadMix(4, 1, 7)

				cold := MustNew(cfg, spec)
				cold.Warmup(warm)
				want := cold.Run(meas)

				saver := MustNew(cfg, spec)
				saver.Warmup(warm)
				data, err := saver.SaveSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				// Saving is read-only: the saver itself must still measure
				// the cold numbers.
				if got := saver.Run(meas); !reflect.DeepEqual(got, want) {
					t.Fatalf("run after SaveSnapshot differs from cold run:\n got %+v\nwant %+v", got, want)
				}

				restored := MustNew(cfg, spec)
				mustRestore(t, restored, data)
				if got := restored.Run(meas); !reflect.DeepEqual(got, want) {
					t.Fatalf("restored run differs from cold run:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// Mid-flight checkpoints must also round-trip: saving at an arbitrary cycle
// boundary (pipeline full, events in flight) and continuing is equivalent to
// restoring and continuing.
func TestSnapshotMidRunRoundTrip(t *testing.T) {
	cfg := snapshotConfig(PredGshare, FetchICount)
	spec := WorkloadMix(4, 0, 11)

	a := MustNew(cfg, spec)
	a.Warmup(5_000)
	data, err := a.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := a.Run(12_000)

	b := MustNew(cfg, spec)
	mustRestore(t, b, data)
	if got := b.Run(12_000); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored continuation differs:\n got %+v\nwant %+v", got, want)
	}
}

// Trace replay is the second acceleration layer: a simulator fetching from
// the pre-decoded shared trace must commit exactly the bits the live walker
// commits — including when the trace is undersized and the cursor spills
// onto its tail walker mid-run.
func TestReplayMatchesWalker(t *testing.T) {
	const warm, meas = 2_000, 16_000
	for _, alg := range snapshotPolicies {
		t.Run(string(alg), func(t *testing.T) {
			cfg := snapshotConfig(PredGshare, alg)
			spec := WorkloadMix(4, 2, 13)

			cold := MustNew(cfg, spec)
			cold.Warmup(warm)
			want := cold.Run(meas)

			for _, perThread := range []int64{(warm + meas), 1_500} {
				ts, err := BuildTraceSet(spec, perThread)
				if err != nil {
					t.Fatal(err)
				}
				replay, err := NewReplay(cfg, ts)
				if err != nil {
					t.Fatal(err)
				}
				replay.Warmup(warm)
				if got := replay.Run(meas); !reflect.DeepEqual(got, want) {
					t.Fatalf("replay (perThread=%d) differs from walker run:\n got %+v\nwant %+v", perThread, got, want)
				}
			}
		})
	}
}

// The two layers compose: snapshot a replayed machine, restore onto another
// replayed machine, and still match the cold walker run.
func TestReplaySnapshotComposes(t *testing.T) {
	const warm, meas = 2_000, 16_000
	cfg := snapshotConfig(PredGskewed, FetchICount)
	spec := WorkloadMix(4, 0, 17)

	cold := MustNew(cfg, spec)
	cold.Warmup(warm)
	want := cold.Run(meas)

	ts, err := BuildTraceSet(spec, warm+meas)
	if err != nil {
		t.Fatal(err)
	}
	saver, err := NewReplay(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	saver.Warmup(warm)
	data, err := saver.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := NewReplay(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	mustRestore(t, restored, data)
	if got := restored.Run(meas); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed restore differs from cold walker run:\n got %+v\nwant %+v", got, want)
	}

	// Cross-composition: a snapshot from a replayed machine restores onto a
	// walker machine (and vice versa) because the serialized state is
	// identical by construction.
	walker := MustNew(cfg, spec)
	mustRestore(t, walker, data)
	if got := walker.Run(meas); !reflect.DeepEqual(got, want) {
		t.Fatalf("walker restore of replayed snapshot differs:\n got %+v\nwant %+v", got, want)
	}
}

// A trace set is assembled from per-context traces that need not be equally
// long (a cache serves any trace at least as long as asked for): contexts
// spill to their walkers at different points and the run, its checkpoint
// and a restore of it onto a machine with other lengths still match the
// walker. A trace of another benchmark, seed or context is refused.
func TestTraceSetFromTraces(t *testing.T) {
	const warm, meas = 2_000, 16_000
	cfg := snapshotConfig(PredGshare, FetchICount)
	spec := WorkloadMix(4, 1, 23)

	cold := MustNew(cfg, spec)
	cold.Warmup(warm)
	want := cold.Run(meas)

	var sum int64
	assemble := func(lengths [4]int64) *TraceSet {
		t.Helper()
		traces := make([]*workload.Trace, len(spec.Names))
		sum = 0
		for i, name := range spec.Names {
			tr, err := BuildTrace(name, spec.Seed, i, lengths[i])
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
			sum += tr.Bytes()
		}
		ts, err := NewTraceSet(spec, traces)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	mixed := assemble([4]int64{0, 700, 3_000, 50_000})
	if mixed.Records() != 0 || mixed.Bytes() != sum {
		t.Fatalf("Records() = %d, Bytes() = %d; want the minimum length 0 and the sum of all four, %d", mixed.Records(), mixed.Bytes(), sum)
	}
	replay, err := NewReplay(cfg, mixed)
	if err != nil {
		t.Fatal(err)
	}
	replay.Warmup(warm)
	data, err := replay.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := replay.Run(meas); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-length replay differs from walker run:\n got %+v\nwant %+v", got, want)
	}
	restored, err := NewReplay(cfg, assemble([4]int64{50_000, 3_000, 700, 0}))
	if err != nil {
		t.Fatal(err)
	}
	mustRestore(t, restored, data)
	if got := restored.Run(meas); !reflect.DeepEqual(got, want) {
		t.Fatalf("restore onto other trace lengths differs from walker run:\n got %+v\nwant %+v", got, want)
	}

	good, err := BuildTrace(spec.Names[0], spec.Seed, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	one := WorkloadSpec{Names: spec.Names[:1], Seed: spec.Seed}
	if _, err := NewTraceSet(one, []*workload.Trace{good}); err != nil {
		t.Fatalf("matching trace refused: %v", err)
	}
	for name, build := range map[string]func() (*workload.Trace, error){
		"benchmark": func() (*workload.Trace, error) { return BuildTrace(spec.Names[1], spec.Seed, 0, 100) },
		"seed":      func() (*workload.Trace, error) { return BuildTrace(spec.Names[0], spec.Seed+1, 0, 100) },
		"context":   func() (*workload.Trace, error) { return BuildTrace(spec.Names[0], spec.Seed, 1, 100) },
	} {
		tr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewTraceSet(one, []*workload.Trace{tr}); err == nil {
			t.Errorf("NewTraceSet accepted a trace of another %s", name)
		}
	}
	if _, err := NewTraceSet(spec, []*workload.Trace{good}); err == nil {
		t.Error("NewTraceSet accepted 1 trace for 4 contexts")
	}
}

// Restores must refuse anything that is not this machine's snapshot —
// corruption, truncation, version skew, or identity mismatch — and fail
// loudly rather than install wrong state.
func TestRestoreSnapshotRejects(t *testing.T) {
	cfg := snapshotConfig(PredGshare, FetchICount)
	spec := WorkloadMix(4, 0, 7)
	sim := MustNew(cfg, spec)
	sim.Warmup(2_000)
	data, err := sim.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		cfg  Config
		spec WorkloadSpec
		data []byte
	}{
		{"truncated", cfg, spec, data[:len(data)/2]},
		{"one byte short", cfg, spec, data[:len(data)-1]},
		{"trailing byte", cfg, spec, append(bytes.Clone(data), 0)},
		{"garbage", cfg, spec, []byte("not a snapshot")},
		{"v1 JSON envelope", cfg, spec, []byte(`{"version":1,"fingerprint":"` + cfg.Fingerprint() + `","workloads":[],"seed":7,"core":{}}`)},
		{"empty", cfg, spec, nil},
		{"wrong config", func() Config {
			c := snapshotConfig(PredSmiths, FetchICount)
			return c
		}(), spec, data},
		{"wrong rotation", cfg, WorkloadMix(4, 1, 7), data},
		{"wrong seed", cfg, WorkloadMix(4, 0, 8), data},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := MustNew(tc.cfg, tc.spec)
			if err := fresh.RestoreSnapshot(tc.data); err == nil {
				t.Fatal("RestoreSnapshot accepted a mismatched snapshot")
			}
		})
	}
}

// Snapshots are cycle-boundary captures: both directions refuse to operate
// while a streaming session holds the machine.
func TestSnapshotRefusesActiveSession(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 0, 3))
	sess, err := sim.Start(context.Background(), RunSpec{Instructions: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.SaveSnapshot(); err == nil {
		t.Fatal("SaveSnapshot succeeded during an active session")
	}
	if err := sim.RestoreSnapshot(nil); err == nil {
		t.Fatal("RestoreSnapshot succeeded during an active session")
	}
	for range sess.Snapshots() {
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.SaveSnapshot(); err != nil {
		t.Fatalf("SaveSnapshot after session finish: %v", err)
	}
}
