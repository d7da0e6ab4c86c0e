package smt

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testConfig(threads int) Config {
	cfg := DefaultConfig(threads)
	cfg.FetchPolicy = FetchICount
	cfg.FetchThreads = 2
	return cfg
}

// A streamed session's final cumulative snapshot must be byte-identical to
// the blocking Run on the same machine and seed — the acceptance contract
// that lets every caller adopt streaming without re-validating results.
func TestSessionMatchesBlockingRun(t *testing.T) {
	cfg := testConfig(4)

	blocking := MustNew(cfg, WorkloadMix(4, 0, 9))
	blocking.Warmup(4_000)
	want := blocking.Run(40_000)

	streamed := MustNew(cfg, WorkloadMix(4, 0, 9))
	sess, err := streamed.Start(context.Background(), RunSpec{
		Warmup:         4_000,
		Instructions:   40_000,
		IntervalCycles: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	for snap := range sess.Snapshots() {
		snaps = append(snaps, snap)
	}
	got, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed final results differ from blocking run:\n got %+v\nwant %+v", got, want)
	}
	if len(snaps) < 2 {
		t.Fatalf("expected multiple interval snapshots, got %d", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !last.Done {
		t.Fatal("last snapshot not marked Done")
	}
	if !reflect.DeepEqual(last.Cumulative, want) {
		t.Fatal("final snapshot Cumulative differs from blocking run")
	}
	for i, snap := range snaps {
		if snap.Index != i {
			t.Fatalf("snapshot %d has index %d", i, snap.Index)
		}
		if snap.Done != (i == len(snaps)-1) {
			t.Fatalf("snapshot %d Done = %v", i, snap.Done)
		}
	}
}

// Interval deltas must partition the run: summing every delta's counters
// reproduces the final cumulative counters exactly.
func TestSessionDeltasPartitionRun(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 1, 5))
	sess, err := sim.Start(context.Background(), RunSpec{
		Instructions:   20_000,
		IntervalCycles: 700,
	})
	if err != nil {
		t.Fatal(err)
	}
	var cycles, committed, fetchedSum int64
	var last Snapshot
	for snap := range sess.Snapshots() {
		cycles += snap.Delta.Cycles
		committed += snap.Delta.Committed
		fetchedSum += snap.Delta.Caches[0].Accesses
		last = snap
	}
	if cycles != last.Cumulative.Cycles {
		t.Errorf("delta cycles sum %d != cumulative %d", cycles, last.Cumulative.Cycles)
	}
	if committed != last.Cumulative.Committed {
		t.Errorf("delta committed sum %d != cumulative %d", committed, last.Cumulative.Committed)
	}
	if fetchedSum != last.Cumulative.Caches[0].Accesses {
		t.Errorf("delta L1I accesses sum %d != cumulative %d", fetchedSum, last.Cumulative.Caches[0].Accesses)
	}
	if last.Cycles != last.Cumulative.Cycles {
		t.Errorf("Snapshot.Cycles %d != Cumulative.Cycles %d", last.Cycles, last.Cumulative.Cycles)
	}
}

// Cancelling the context stops the session early with the context's error
// and partial results.
func TestSessionCancellation(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 0, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first cycle
	sess, err := sim.Start(ctx, RunSpec{Instructions: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Finish()
	if err != context.Canceled {
		t.Fatalf("Finish err = %v, want context.Canceled", err)
	}
	if res.Cycles > 1024 {
		t.Fatalf("cancelled session still ran %d cycles", res.Cycles)
	}
}

// A simulator admits one session at a time; Run/Warmup share the slot.
func TestSessionExclusive(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 0, 3))
	ctx, cancel := context.WithCancel(context.Background())
	// An unbounded budget guarantees the session is still active when the
	// overlapping Start is attempted.
	sess, err := sim.Start(ctx, RunSpec{Instructions: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Start(context.Background(), RunSpec{Instructions: 1}); err == nil {
		t.Fatal("second concurrent session accepted")
	}
	cancel()
	if _, err := sess.Finish(); err != context.Canceled {
		t.Fatalf("Finish err = %v, want context.Canceled", err)
	}
	// The slot frees once the session finishes.
	sess2, err := sim.Start(context.Background(), RunSpec{Instructions: 1_000})
	if err != nil {
		t.Fatalf("session after finish rejected: %v", err)
	}
	if _, err := sess2.Finish(); err != nil {
		t.Fatal(err)
	}
}

// Warmup and RunCycles with a zero budget do their work without stepping,
// and still claim the session slot: during a session they panic instead
// of resetting or reading counters the session's goroutine is writing.
func TestZeroBudgetCallsHonourTheSession(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 0, 3))
	ctx, cancel := context.WithCancel(context.Background())
	sess, err := sim.Start(ctx, RunSpec{Instructions: math.MaxInt64, IntervalCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	<-sess.Snapshots()
	for name, call := range map[string]func(){
		"Warmup(0)":    func() { sim.Warmup(0) },
		"RunCycles(0)": func() { sim.RunCycles(0) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "active session") {
					t.Errorf("%s during a session: recovered %v, want the active-session panic", name, r)
				}
			}()
			call()
		}()
	}
	cancel()
	sess.Finish()
	// With the slot free again, both run.
	sim.Warmup(0)
	if res := sim.RunCycles(0); res.Cycles != 0 {
		t.Errorf("RunCycles(0) after Warmup(0) reports %d cycles", res.Cycles)
	}
}

func TestRunSpecValidation(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 0, 3))
	for _, spec := range []RunSpec{
		{Instructions: -1},
		{Warmup: -1},
		{MaxCycles: -1},
		{IntervalCycles: -1},
	} {
		if _, err := sim.Start(context.Background(), spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// Two sessions on separate simulators must stream independently; run with
// -race in CI to catch shared-state regressions in the session machinery.
func TestConcurrentSessionsSeparateSimulators(t *testing.T) {
	cfg := testConfig(2)
	results := make([]Results, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sim := MustNew(cfg, WorkloadMix(2, i, 7))
			sess, err := sim.Start(context.Background(), RunSpec{
				Instructions:   15_000,
				IntervalCycles: 300,
			})
			if err != nil {
				t.Error(err)
				return
			}
			for range sess.Snapshots() {
			}
			results[i], _ = sess.Finish()
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Committed < 15_000 {
			t.Errorf("session %d committed %d", i, r.Committed)
		}
	}
	// Different rotations run different mixes; identical results would mean
	// the sessions shared state.
	if reflect.DeepEqual(results[0], results[1]) {
		t.Error("independent sessions produced identical results")
	}
}

// New rejects workloads the methodology forbids: unknown benchmark names
// (with the valid list in the error) and duplicate programs while distinct
// benchmarks remain available.
func TestNewValidatesWorkloadSpec(t *testing.T) {
	cfg := DefaultConfig(2)

	_, err := New(cfg, WorkloadSpec{Names: []string{"compress", "nosuchbench"}, Seed: 1})
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, name := range Benchmarks() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid name %q", err, name)
		}
	}

	names := Benchmarks()
	_, err = New(cfg, WorkloadSpec{Names: []string{names[0], names[0]}, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("duplicate benchmark accepted (err %v)", err)
	}

	// More contexts than benchmarks: duplicates unavoidable, allowed.
	big := DefaultConfig(len(names) + 1)
	spec := WorkloadMix(len(names)+1, 0, 1)
	if _, err := New(big, spec); err != nil {
		t.Fatalf("wraparound mix rejected: %v", err)
	}
}

// Cancellation must take effect during the warmup phase too, not only once
// measurement begins.
func TestSessionCancelDuringWarmup(t *testing.T) {
	sim := MustNew(testConfig(2), WorkloadMix(2, 0, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := sim.Start(ctx, RunSpec{Warmup: math.MaxInt64 / 2, Instructions: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Finish(); err != context.Canceled {
		t.Fatalf("Finish err = %v, want context.Canceled", err)
	}
}
