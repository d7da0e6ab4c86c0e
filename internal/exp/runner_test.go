package exp

import (
	"context"
	"reflect"
	"testing"
)

// tinyOpts returns the smallest budgets that still exercise every pipeline
// stage; engine plumbing tests use them so the suite stays fast.
func tinyOpts() Opts {
	return Opts{Runs: 2, Warmup: 1_000, Measure: 2_000, Seed: 1}
}

func TestRegistryShapes(t *testing.T) {
	if len(Names()) == 0 {
		t.Fatal("empty registry")
	}
	for _, e := range Experiments() {
		grid, err := e.Grid()
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		for i, p := range grid {
			if p.Series == "" || p.Threads <= 0 {
				t.Errorf("%s point %d malformed: %+v", e.Name, i, p)
			}
			if p.Config.Threads != p.Threads {
				t.Errorf("%s point %d: spec threads %d != config threads %d",
					e.Name, i, p.Threads, p.Config.Threads)
			}
		}
	}
}

func TestRegistryCoversPaperEvaluation(t *testing.T) {
	for _, name := range []string{"fig3", "table3", "fig4", "fig5", "table4", "fig6", "table5", "sec7", "fig7"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("registry missing %s", name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("lookup of unknown experiment succeeded")
	}
	if _, err := Run("nope", tinyOpts(), 1); err == nil {
		t.Fatal("Run of unknown experiment succeeded")
	}
}

// TestRegisterRefusesBadEntries: a duplicate or empty name, or an entry
// with no grid, panics and leaves the registry as it was; whatever does
// register, or comes from a comparison builder, has a layout.
func TestRegisterRefusesBadEntries(t *testing.T) {
	before := Names()
	grid := func() []PointSpec { return nil }
	for what, e := range map[string]Experiment{
		"duplicate name": {Name: "fig3", Points: grid},
		"empty name":     {Points: grid},
		"no grid":        {Name: "gridless"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", what)
				}
			}()
			Register(e)
		}()
	}
	if after := Names(); !reflect.DeepEqual(after, before) {
		t.Fatalf("registry changed: %v -> %v", before, after)
	}
	adhoc, err := PolicyComparison([]string{"RR"}, "", 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(Experiments(), adhoc) {
		if e.Print == nil {
			t.Errorf("%s has no layout", e.Name)
		}
	}
}

func TestJobSeedPairsWorkloadsAcrossPoints(t *testing.T) {
	// Different rotations get different seeds; different points of the same
	// rotation share one, so within an experiment every configuration runs
	// identical workload streams (the paper's paired methodology).
	if JobSeed(1, 0) == JobSeed(1, 1) {
		t.Fatal("rotations share a seed")
	}
	if JobSeed(1, 0) == JobSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
	if JobSeed(1, 3) != JobSeed(1, 3) {
		t.Fatal("JobSeed not stable")
	}
}

// TestPairedWorkloadsAcrossExperiments pins the fairness contract end to
// end: the same machine configuration appearing in two different grids
// (RR.1.8 at 1 thread is in both fig3 and table3) must produce identical
// counters, because the workload seed excludes experiment and point
// identity.
func TestPairedWorkloadsAcrossExperiments(t *testing.T) {
	o := tinyOpts()
	fig3, err := Run("fig3", o, 2)
	if err != nil {
		t.Fatal(err)
	}
	table3, err := Run("table3", o, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := fig3.Lookup("RR.1.8")[0]   // T=1
	b := table3.Lookup("RR.1.8")[0] // T=1
	if a.IPC != b.IPC || a.Results.Cycles != b.Results.Cycles {
		t.Fatalf("same config diverged across experiments: %+v vs %+v", a, b)
	}
	// And with the same machine run on its own, outside any registry grid.
	m := measure(t, MustFetchScheme(1, "RR", 1, 8), o)
	if m.IPC != a.IPC || m.Results.Cycles != a.Results.Cycles {
		t.Fatalf("standalone %+v != in-grid %+v for identical config", m, a)
	}
}

func TestJobsExpandGridInOrder(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	jobs, err := Jobs(e, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5*o.Runs {
		t.Fatalf("want %d jobs, got %d", 5*o.Runs, len(jobs))
	}
	for i, j := range jobs {
		if j.Point != i/o.Runs || j.Run != i%o.Runs {
			t.Fatalf("job %d out of order: point=%d run=%d", i, j.Point, j.Run)
		}
		if j.Experiment != "fig7" {
			t.Fatalf("job %d experiment %q", i, j.Experiment)
		}
	}
}

// TestRunnerConcurrentSmoke exercises the worker pool with more workers
// than GOMAXPROCS on a multi-point grid; under -race this is the engine's
// data-race canary.
func TestRunnerConcurrentSmoke(t *testing.T) {
	e, _ := Lookup("fig7")
	res, err := Runner{Workers: 4}.RunExperiment(context.Background(), e, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 5 {
		t.Fatalf("unexpected shape: %+v", res.Series)
	}
	for _, p := range res.Series[0].Points {
		if p.IPC <= 0 {
			t.Fatalf("T=%d produced no throughput", p.Threads)
		}
		if p.Results.Committed <= 0 {
			t.Fatalf("T=%d committed nothing", p.Threads)
		}
	}
}

func TestRunnerAveragesRotations(t *testing.T) {
	e, _ := Lookup("fig7")
	o := tinyOpts()
	res, err := Runner{Workers: 1}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute point 0's average from the raw per-job results.
	var want float64
	for run := 0; run < o.Runs; run++ {
		grid, _ := e.Grid()
		r := Simulate(grid[0].Config, run, JobSeed(o.Seed, run), o.Normalized(), 0, nil)
		want += r.IPC
	}
	want /= float64(o.Runs)
	got := res.Series[0].Points[0].IPC
	if got != want {
		t.Fatalf("aggregated IPC %v, recomputed %v", got, want)
	}
}
