package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// TestDispatcherByteIdentical: routing jobs through a Dispatcher that
// runs the canonical kernel must not change result bytes — the seam the
// distributed coordinator plugs into.
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
	if a, b := encodeResult(t, local), encodeResult(t, viaDispatch); a != b {
		t.Fatalf("dispatcher changed result bytes\nlocal:\n%s\ndispatched:\n%s", a, b)
	}
}

// TestNilDispatchIsZeroWarmEnv: a Runner with no Dispatch, one with
// Dispatch: WarmEnv{}, and Simulate called directly are the same execution
// — identical bytes per job and per sweep.
func TestNilDispatchIsZeroWarmEnv(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	perJob := func(r Runner) (string, map[[2]int]string) {
		var mu sync.Mutex
		jobs := map[[2]int]string{}
		r.OnJobDone = func(j Job, res smt.Results, _ bool) {
			b, err := json.Marshal(res)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			jobs[[2]int{j.Point, j.Run}] = string(b)
			mu.Unlock()
		}
		res, err := r.RunExperiment(context.Background(), e, o)
		if err != nil {
			t.Fatal(err)
		}
		return encodeResult(t, res), jobs
	}
	nilSweep, nilJobs := perJob(Runner{Workers: 2})
	envSweep, envJobs := perJob(Runner{Workers: 2, Dispatch: WarmEnv{}})
	if nilSweep != envSweep {
		t.Fatalf("Dispatch: WarmEnv{} changed the sweep's bytes\nnil:\n%s\nWarmEnv{}:\n%s", nilSweep, envSweep)
	}
	jobs, err := Jobs(e, o)
	if err != nil {
		t.Fatal(err)
	}
	o = o.Normalized()
	for _, j := range jobs {
		b, err := json.Marshal(Simulate(j.Spec.Config, j.Run, JobSeed(o.Seed, j.Run), o, 0, nil))
		if err != nil {
			t.Fatal(err)
		}
		k := [2]int{j.Point, j.Run}
		if nilJobs[k] != string(b) || envJobs[k] != string(b) {
			t.Fatalf("point %d rotation %d: runner results differ from Simulate\nSimulate:  %s\nnil:       %s\nWarmEnv{}: %s", j.Point, j.Run, b, nilJobs[k], envJobs[k])
		}
	}
}

func encodeResult(t *testing.T, r *ExperimentResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
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

// TestJobPayloadFields pins what Simulate may depend on: two jobs that
// agree on config, rotation, seed, and budgets must produce identical
// results regardless of experiment/point identity — the property that
// lets the distributed payload omit them.
func TestJobPayloadFields(t *testing.T) {
	cfg := ICount28(2)
	o := tinyOpts().Normalized()
	a := Simulate(cfg, 1, JobSeed(o.Seed, 1), o, 0, nil)
	b := Simulate(cfg, 1, JobSeed(o.Seed, 1), o, 0, nil)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("Simulate is not a pure function of (config, rotation, seed, budgets)")
	}
}
