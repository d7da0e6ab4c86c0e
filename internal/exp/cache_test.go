package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/smt"
)

// TestJobKeyContentAddress: the key must cover everything that determines
// a job's results (config, rotation, seed, budgets) and nothing that does
// not (experiment name, point index).
func TestJobKeyContentAddress(t *testing.T) {
	o := tinyOpts()
	base := Job{Experiment: "fig7", Point: 0, Run: 1, Spec: PointSpec{Config: ICount28(2)}}

	same := base
	same.Experiment, same.Point = "table4", 3 // identity fields: excluded
	if base.Key(o) != same.Key(o) {
		t.Fatal("experiment/point identity leaked into the content address")
	}

	cases := []struct {
		name string
		job  Job
		opts Opts
	}{
		{"rotation", func() Job { j := base; j.Run = 2; return j }(), o},
		{"config", func() Job {
			j := base
			j.Spec.Config = MustFetchScheme(2, "RR", 1, 8)
			return j
		}(), o},
		{"seed", base, func() Opts { x := o; x.Seed = 99; return x }()},
		{"warmup", base, func() Opts { x := o; x.Warmup = 123; return x }()},
		{"measure", base, func() Opts { x := o; x.Measure = 123; return x }()},
	}
	for _, c := range cases {
		if c.job.Key(c.opts) == base.Key(o) {
			t.Errorf("%s change did not change the job key", c.name)
		}
	}
}

// TestKeysCarryModelVersion: a result key and a checkpoint key both carry
// smt.ModelVersion, so one bump misses a durable cache's results and its
// checkpoints together.
func TestKeysCarryModelVersion(t *testing.T) {
	o := tinyOpts()
	cfg := ICount28(2)
	v := fmt.Sprintf("v%d:", smt.ModelVersion)
	if k := (Job{Spec: PointSpec{Config: cfg}}).Key(o); !strings.HasPrefix(k, v) {
		t.Errorf("result key %s does not start with %s", k, v)
	}
	if k := SnapshotKey(cfg.Fingerprint(), 0, o.Seed, o.Warmup); !strings.HasPrefix(k, SnapshotKeyPrefix+v) {
		t.Errorf("checkpoint key %s does not start with %s%s", k, SnapshotKeyPrefix, v)
	}
}

func TestKeyShape(t *testing.T) {
	key := SnapshotKey("fp123", 3, 7, 30000)
	want := fmt.Sprintf("snap:v%d:fp123:r3:s7:w30000", smt.ModelVersion)
	if key != want {
		t.Fatalf("SnapshotKey = %q, want %q", key, want)
	}
	if !strings.HasPrefix(key, SnapshotKeyPrefix) {
		t.Fatalf("SnapshotKey %q does not carry the routing prefix %q", key, SnapshotKeyPrefix)
	}
	// The measure budget must never appear in the key: excluding it is
	// what lets every measure-budget variant of a sweep share checkpoints.
	if strings.Contains(key, "m") {
		t.Fatalf("SnapshotKey %q appears to encode a measure budget", key)
	}
}

// TestJobsCarryTheirFingerprint: Jobs fingerprints each grid point once and
// its rotations carry the value; the key a carried fingerprint yields must
// be the key the same job yields when it fingerprints on demand.
func TestJobsCarryTheirFingerprint(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	o.Runs = 3
	jobs, err := Jobs(e, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.fp == "" {
			t.Fatalf("job p%d.r%d carries no fingerprint", j.Point, j.Run)
		}
		byHand := Job{Experiment: j.Experiment, Point: j.Point, Run: j.Run, Spec: j.Spec}
		if j.Key(o) != byHand.Key(o) {
			t.Fatalf("p%d.r%d: carried fingerprint keys %s, on-demand %s", j.Point, j.Run, j.Key(o), byHand.Key(o))
		}
	}
}

// markerCache returns a fabricated result for every key; if the runner
// consults the cache at all, every point must carry the marker — proving a
// full cache means zero simulator invocations.
type markerCache struct{ res smt.Results }

func (m markerCache) Get(string) (smt.Results, bool) { return m.res, true }
func (m markerCache) Put(string, smt.Results)        {}

func TestFullCacheSkipsSimulation(t *testing.T) {
	e, _ := Lookup("fig7")
	marker := smt.Results{IPC: 42.5, Cycles: 777}
	res, err := Runner{Workers: 2, Cache: markerCache{marker}}.
		RunExperiment(context.Background(), e, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.IPC != marker.IPC || p.Results.Cycles != marker.Cycles {
				t.Fatalf("point %s/T=%d was simulated despite a full cache: %+v",
					s.Name, p.Threads, p)
			}
		}
	}
}

// TestOnJobDoneReportsEveryJob: the completion callback must fire once per
// job with the correct cache provenance.
func TestOnJobDoneReportsEveryJob(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	store := cache.New[smt.Results](0)

	var mu sync.Mutex
	var done, hits int
	runner := Runner{
		Workers: 2,
		Cache:   store,
		OnJobDone: func(j Job, r smt.Results, fromCache bool) {
			mu.Lock()
			defer mu.Unlock()
			done++
			if fromCache {
				hits++
			}
			if j.Experiment != "fig7" || r.Cycles == 0 {
				t.Errorf("callback got malformed job/result: %+v, cycles=%d", j, r.Cycles)
			}
		},
	}
	jobs, _ := Jobs(e, o)
	if _, err := runner.RunExperiment(context.Background(), e, o); err != nil {
		t.Fatal(err)
	}
	if done != len(jobs) || hits != 0 {
		t.Fatalf("cold run: %d callbacks (%d hits), want %d (0)", done, hits, len(jobs))
	}
	done, hits = 0, 0
	if _, err := runner.RunExperiment(context.Background(), e, o); err != nil {
		t.Fatal(err)
	}
	if done != len(jobs) || hits != len(jobs) {
		t.Fatalf("warm run: %d callbacks (%d hits), want %d (%d)", done, hits, len(jobs), len(jobs))
	}
}

// TestRunExperimentCancel: a cancelled context aborts the run with the
// context's error instead of a partial result.
func TestRunExperimentCancel(t *testing.T) {
	e, _ := Lookup("fig7")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Runner{Workers: 2}.RunExperiment(ctx, e, tinyOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
}

// TestCacheSharedAcrossExperiments: the same configuration appearing in
// two grids (RR.1.8 at 1, 4, 8 threads is table3's whole grid and part of
// fig3's) must reuse cache entries across experiments, because job keys
// exclude experiment identity.
func TestCacheSharedAcrossExperiments(t *testing.T) {
	o := tinyOpts()
	store := cache.New[smt.Results](0)
	fig3E, _ := Lookup("fig3")
	table3E, _ := Lookup("table3")
	runner := Runner{Workers: 2, Cache: store}
	if _, err := runner.RunExperiment(context.Background(), fig3E, o); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.RunExperiment(context.Background(), table3E, o); err != nil {
		t.Fatal(err)
	}
	jobs, _ := Jobs(table3E, o)
	if st := store.Stats(); st.Hits != int64(len(jobs)) {
		t.Fatalf("table3 should be fully contained in fig3's cache: %d hits of %d jobs",
			st.Hits, len(jobs))
	}
}

// getPutOnly hides everything but Get/Put of the cache it wraps — the shape
// of a caller-side instrumenting wrapper (bench/'s traced cache).
type getPutOnly struct{ inner JobCache }

func (w getPutOnly) Get(key string) (smt.Results, bool) { return w.inner.Get(key) }
func (w getPutOnly) Put(key string, r smt.Results)      { w.inner.Put(key, r) }

// TestRunnerCacheSeam: runJob serves a plain JobCache, a cache.Flight, and
// a Flight hidden behind a Get/Put-only wrapper. The waiter upgrade
// applies exactly when the cache value itself offers it; otherwise the
// runner takes the plain Get/Put path — never a panic or a hang.
func TestRunnerCacheSeam(t *testing.T) {
	o := tinyOpts()
	j := Job{Spec: PointSpec{Config: ICount28(1)}}
	key := j.Key(o)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("backend exploded")
	want := smt.Results{IPC: 4.25, Cycles: 99}

	type result struct {
		res smt.Results
		err error
	}
	// runner returns a Runner over c whose dispatcher counts its calls and
	// answers want, or err when err is set.
	runner := func(c JobCache, calls *atomic.Int32, err error) Runner {
		return Runner{Cache: c, Dispatch: dispatcherFunc(func(context.Context, Job, Opts, int64, func(smt.Snapshot)) (smt.Results, error) {
			calls.Add(1)
			return want, err
		})}
	}
	// run executes j off the test goroutine so a hang is observable.
	run := func(ctx context.Context, r Runner) <-chan result {
		ch := make(chan result, 1)
		go func() {
			res, err := r.runJob(ctx, j, o)
			ch <- result{res, err}
		}()
		return ch
	}
	await := func(t *testing.T, ch <-chan result) result {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("runJob hung")
			return result{}
		}
	}
	stillWaiting := func(t *testing.T, ch <-chan result, why string) {
		t.Helper()
		select {
		case r := <-ch:
			t.Fatalf("%s: runJob returned %+v", why, r)
		case <-time.After(20 * time.Millisecond):
		}
	}

	t.Run("store", func(t *testing.T) {
		store := cache.New[smt.Results](0)
		var calls atomic.Int32
		// A failed dispatch leaves nothing to release and nothing stored.
		if r := await(t, run(context.Background(), runner(store, &calls, boom))); !errors.Is(r.err, boom) {
			t.Fatalf("failed dispatch: %+v, want %v", r, boom)
		}
		// A miss dispatches and fills the store; the next lookup hits.
		for i, ctx := range []context.Context{context.Background(), cancelled} {
			if r := await(t, run(ctx, runner(store, &calls, nil))); r.err != nil || !reflect.DeepEqual(r.res, want) {
				t.Fatalf("run %d: %+v, want %+v", i, r, want)
			}
		}
		if n := calls.Load(); n != 2 {
			t.Fatalf("%d dispatches, want 2 (the failure, then one miss)", n)
		}
	})

	t.Run("flight", func(t *testing.T) {
		flight := cache.NewFlight[smt.Results](cache.New[smt.Results](0))
		var calls atomic.Int32
		// Another runner leads the key; a cancelled lookup behind it
		// returns ctx's error, dispatches nothing and takes no leadership.
		if _, ok := flight.Get(key); ok {
			t.Fatal("setup: empty flight served a hit")
		}
		if r := await(t, run(cancelled, runner(flight, &calls, nil))); !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancelled wait: %+v, want context.Canceled", r)
		}
		flight.Forget(key)

		// A leader whose dispatch fails releases its waiter, which leads.
		started, gate := make(chan struct{}), make(chan struct{})
		leader := Runner{Cache: flight, Dispatch: dispatcherFunc(func(context.Context, Job, Opts, int64, func(smt.Snapshot)) (smt.Results, error) {
			close(started) // the one job: dispatched once
			<-gate
			return smt.Results{}, boom
		})}
		failed := run(context.Background(), leader)
		<-started
		waiting := run(context.Background(), runner(flight, &calls, nil))
		stillWaiting(t, waiting, "a lookup behind a dispatching leader")
		close(gate)
		if r := await(t, failed); !errors.Is(r.err, boom) {
			t.Fatalf("leader: %+v, want %v", r, boom)
		}
		if r := await(t, waiting); r.err != nil || !reflect.DeepEqual(r.res, want) {
			t.Fatalf("released waiter: %+v, want its own dispatch's %+v", r, want)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("released waiter dispatched %d times, want 1", n)
		}
		if got, ok := flight.Get(key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("flight after the waiter led: %+v, %v", got, ok)
		}
	})

	t.Run("wrapped flight", func(t *testing.T) {
		flight := cache.NewFlight[smt.Results](cache.New[smt.Results](0))
		var calls atomic.Int32
		if _, ok := flight.Get(key); ok {
			t.Fatal("setup: empty flight served a hit")
		}
		// The wrapper hides the upgrade: plain Get waits for the leader,
		// ctx or not, and takes the leader's value as a hit.
		waiting := run(cancelled, runner(getPutOnly{flight}, &calls, nil))
		stillWaiting(t, waiting, "plain Get behind a leader")
		flight.Put(key, want)
		if r := await(t, waiting); r.err != nil || !reflect.DeepEqual(r.res, want) {
			t.Fatalf("waiter after the leader's Put: %+v, want a hit on %+v", r, want)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("a hit dispatched %d times", n)
		}
	})

	// A Runner with no Cache dispatches; a failure has nothing to release.
	var calls atomic.Int32
	if r := await(t, run(context.Background(), runner(nil, &calls, boom))); !errors.Is(r.err, boom) {
		t.Fatalf("no cache: %+v, want %v", r, boom)
	}
}
