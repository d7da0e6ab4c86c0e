package exp

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/smt"
)

// dispatcherFunc adapts a function to the Dispatcher interface.
type dispatcherFunc func(ctx context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error)

func (f dispatcherFunc) Dispatch(ctx context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
	return f(ctx, j, o, interval, onSnap)
}

// TestDispatcherByteIdentical: a registered experiment at two rotations,
// dispatched job by job to Simulate, encodes to the bytes the runner's own
// execution does. The path matrix's rows run one rotation; this one hands
// the dispatcher run 1 and its seed.
func TestDispatcherByteIdentical(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	local, err := Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	viaDispatch, err := Runner{
		Workers: 3,
		Dispatch: dispatcherFunc(func(ctx context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
			return Simulate(j.Spec.Config, j.Run, JobSeed(o.Seed, j.Run), o, interval, onSnap), nil
		}),
	}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := encode(t, local), encode(t, viaDispatch); !bytes.Equal(a, b) {
		t.Fatalf("dispatcher changed result bytes\nlocal:\n%s\ndispatched:\n%s", a, b)
	}
}

// TestNoObserverNoInterval: a runner with an Interval but no OnSnapshot
// asks its dispatcher for no snapshots, since nothing would read them.
// With an observer it passes the interval and a callback.
func TestNoObserverNoInterval(t *testing.T) {
	e, _ := Lookup("fig7")
	for _, observe := range []bool{false, true} {
		var mu sync.Mutex
		var intervals []int64
		r := Runner{
			Workers:  2,
			Interval: 1000,
			Dispatch: dispatcherFunc(func(ctx context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
				if (interval > 0) != (onSnap != nil) {
					t.Errorf("interval %d with onSnap set = %v", interval, onSnap != nil)
				}
				mu.Lock()
				intervals = append(intervals, interval)
				mu.Unlock()
				return smt.Results{}, nil
			}),
		}
		want := int64(0)
		if observe {
			r.OnSnapshot = func(Job, smt.Snapshot) {}
			want = 1000
		}
		if _, err := r.RunExperiment(context.Background(), e, tinyOpts()); err != nil {
			t.Fatal(err)
		}
		if len(intervals) == 0 {
			t.Fatal("nothing was dispatched")
		}
		for _, got := range intervals {
			if got != want {
				t.Fatalf("observer set = %v: dispatched with interval %d, want %d", observe, got, want)
			}
		}
	}
}

// TestDispatchErrorFailsSweepAndReleasesFlight: a dispatch failure must
// surface as the sweep's error, stop the remaining jobs, and release the
// failed job's singleflight leadership so a later run of the same key
// does not deadlock behind a Put that will never come.
func TestDispatchErrorFailsSweepAndReleasesFlight(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	flight := cache.NewFlight[smt.Results](cache.New[smt.Results](0))
	boom := errors.New("backend exploded")
	r := Runner{
		Workers: 2,
		Cache:   flight,
		Dispatch: dispatcherFunc(func(ctx context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
			return smt.Results{}, boom
		}),
	}
	if _, err := r.RunExperiment(context.Background(), e, o); !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want %v", err, boom)
	}
	// The same keys must be computable again: if leadership leaked, this
	// second run blocks forever on Flight.Get.
	ok := Runner{Workers: 2, Cache: flight}
	done := make(chan error, 1)
	go func() {
		_, err := ok.RunExperiment(context.Background(), e, o)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("re-run deadlocked: failed dispatch leaked flight leadership")
	}
}

// TestRunnerCancelDuringSimulationDrains: cancellation mid-simulation
// also returns and leaves no goroutines behind; in-flight jobs finish
// their budgets first by design.
func TestRunnerCancelDuringSimulationDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	done := make(chan error, 1)
	e, _ := Lookup("fig7")
	go func() {
		_, err := Runner{
			Workers:  2,
			Interval: 50,
			OnSnapshot: func(j Job, s smt.Snapshot) {
				select {
				case started <- struct{}{}:
				default:
				}
			},
		}.RunExperiment(ctx, e, Opts{Runs: 2, Warmup: 500, Measure: 5_000, Seed: 1})
		done <- err
	}()
	<-started // at least one job is mid-simulation
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("RunExperiment never returned after mid-simulation cancel")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak after mid-simulation cancel: %d before, %d after", before, n)
	}
}
