package exp_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/smt"
)

// These two tests exercise the bound production runs under: smtd gives
// every sweep its own Runner, all dispatching through one dist.Coordinator
// whose LocalSlots bound in-process simulation. They live in the external
// test package because internal/dist imports internal/exp.

var slotOpts = exp.Opts{Runs: 2, Warmup: 1_000, Measure: 2_000, Seed: 1}

// TestSharedSemaphoreBoundsConcurrency: two sweeps through one coordinator
// with a single local slot must never execute two jobs at once, whatever
// their own worker counts.
func TestSharedSemaphoreBoundsConcurrency(t *testing.T) {
	e, _ := exp.Lookup("fig7")
	o := slotOpts
	var mu sync.Mutex
	inFlight, maxInFlight, ran := 0, 0, 0
	coord := dist.NewCoordinator(dist.Options{
		LocalSlots: 1,
		Exec: func(p dist.JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			mu.Lock()
			inFlight++
			ran++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			res := dist.SimulateJob(exp.WarmEnv{})(p, onSnap)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return res
		},
	})
	defer coord.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := (exp.Runner{Workers: 4, Dispatch: coord}).RunExperiment(context.Background(), e, o); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	jobs, _ := exp.Jobs(e, o)
	if ran != 2*len(jobs) {
		t.Fatalf("%d jobs executed, want %d", ran, 2*len(jobs))
	}
	if maxInFlight != 1 {
		t.Fatalf("one local slot allowed %d concurrent jobs", maxInFlight)
	}
}

// TestRunnerCancelPromptWithSharedSem is the goroutine-leak regression
// test: a sweep cancelled while its jobs queue for a local slot must return
// promptly (not wait for slots held by other tenants), run nothing, and
// leave no goroutine behind once the coordinator closes.
func TestRunnerCancelPromptWithSharedSem(t *testing.T) {
	before := runtime.NumGoroutine()

	// Another tenant's job holds the only slot until the sweep is over.
	var ran atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	coord := dist.NewCoordinator(dist.Options{
		LocalSlots: 1,
		Exec: func(dist.JobPayload, func(smt.Snapshot)) smt.Results {
			if ran.Add(1) > 1 {
				t.Error("a job of the cancelled sweep ran")
				return smt.Results{}
			}
			close(started)
			<-release
			return smt.Results{}
		},
	})
	tenant := make(chan error, 1)
	go func() {
		_, err := coord.Dispatch(context.Background(), exp.Job{Spec: exp.PointSpec{Config: exp.ICount28(1)}}, slotOpts, 0, nil)
		tenant <- err
	}()
	<-started

	e, _ := exp.Lookup("fig7")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := (exp.Runner{Workers: 4, Dispatch: coord}).RunExperiment(ctx, e, slotOpts)
		done <- err
	}()
	// Let the pool queue behind the slot, then cancel.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunExperiment never returned: dispatches are stuck in the local-slot queue")
	}
	close(release)
	if err := <-tenant; err != nil {
		t.Fatal(err)
	}
	coord.Close()

	// Every goroutine the run and the coordinator spawned must be gone,
	// the local slot included once Close stops it.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak after cancelled run: %d before, %d after", before, n)
	}
}
