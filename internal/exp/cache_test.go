package exp

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

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

// TestCachedSweepByteIdentical is the cache layer's determinism contract:
// an uncached run, a cold-cache run, and a warm-cache run of the same
// experiment must emit byte-identical JSON, and the warm run must serve
// every job from cache.
func TestCachedSweepByteIdentical(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	uncached, err := Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}

	store := cache.New[smt.Results](0)
	runner := Runner{Workers: 2, Cache: store}
	cold, err := runner.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runner.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}

	want := encode(t, uncached)
	if got := encode(t, cold); !bytes.Equal(got, want) {
		t.Errorf("cold-cache run differs from uncached:\n%s\nvs\n%s", got, want)
	}
	if got := encode(t, warm); !bytes.Equal(got, want) {
		t.Errorf("warm-cache run differs from uncached:\n%s\nvs\n%s", got, want)
	}

	jobs, _ := Jobs(e, o)
	st := store.Stats()
	if st.Hits != int64(len(jobs)) {
		t.Errorf("warm run hit %d of %d jobs", st.Hits, len(jobs))
	}
	if st.Misses != int64(len(jobs)) {
		t.Errorf("cold run missed %d times, want %d", st.Misses, len(jobs))
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
