package exp_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/smt"
)

// These two tests exercise the bound production runs under: smtd gives
// every sweep its own Runner, all dispatching through one dist.Coordinator
// whose LocalSlots meter in-process simulation. They live in the external
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
		LocalSlots: make(chan struct{}, 1),
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
// leave no goroutine parked on the slot send.
func TestRunnerCancelPromptWithSharedSem(t *testing.T) {
	before := runtime.NumGoroutine()

	slots := make(chan struct{}, 1)
	slots <- struct{}{} // another tenant owns the only slot for the whole test
	coord := dist.NewCoordinator(dist.Options{
		LocalSlots: slots,
		Exec: func(dist.JobPayload, func(smt.Snapshot)) smt.Results {
			t.Error("a job ran without holding a local slot")
			return smt.Results{}
		},
	})

	e, _ := exp.Lookup("fig7")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := (exp.Runner{Workers: 4, Dispatch: coord}).RunExperiment(ctx, e, slotOpts)
		done <- err
	}()
	// Let the pool park on the slot, then cancel.
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
	coord.Close()

	// Every goroutine the run and the coordinator spawned must be gone —
	// without the select-on-ctx acquire they would still be parked on the
	// slot send.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak after cancelled run: %d before, %d after", before, n)
	}
}
