package exp

import (
	"context"
	"testing"

	"repro/smt"
)

// quick returns tiny budgets so experiment plumbing tests stay fast.
func quickOpts() Opts {
	return Opts{Runs: 1, Warmup: 5_000, Measure: 10_000, Seed: 1}
}

func TestFetchSchemeConfig(t *testing.T) {
	cfg, err := FetchSchemeConfig(8, "ICOUNT", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FetchPolicy != smt.FetchICount || cfg.FetchThreads != 2 || cfg.FetchPerThread != 8 {
		t.Fatalf("scheme config wrong: %+v", cfg)
	}
	if _, err := FetchSchemeConfig(8, "NOPE", 1, 8); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// num1 is clamped to the thread count (RR.2.8 at 1 thread is RR.1.8).
	cfg, err = FetchSchemeConfig(1, "RR", 2, 8)
	if err != nil || cfg.FetchThreads != 1 {
		t.Fatalf("clamp failed: %+v, %v", cfg, err)
	}
}

// measure runs one configuration through the engine as a single-point
// experiment — the standard methodology (rotations averaged, counters from
// the last one) for a machine that is not in the registry.
func measure(t *testing.T, cfg smt.Config, o Opts) Point {
	t.Helper()
	e := Experiment{
		Name:  "one-point",
		Shape: Shape{Series: 1, Points: 1},
		Points: func() []PointSpec {
			return []PointSpec{{Series: "s", Label: cfg.FetchName(), Threads: cfg.Threads, Config: cfg}}
		},
	}
	res, err := Runner{Workers: 1}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	return res.Series[0].Points[0]
}

// mustRunSerial runs a registry experiment on one worker.
func mustRunSerial(t *testing.T, name string, o Opts) *ExperimentResult {
	t.Helper()
	res, err := Run(name, o, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMeasureProducesPoint(t *testing.T) {
	p := measure(t, MustFetchScheme(2, "RR", 1, 8), quickOpts())
	if p.IPC <= 0 {
		t.Fatalf("IPC %v", p.IPC)
	}
	if p.Threads != 2 {
		t.Fatalf("threads %d", p.Threads)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	o := quickOpts()
	a := measure(t, MustFetchScheme(2, "ICOUNT", 2, 8), o)
	b := measure(t, MustFetchScheme(2, "ICOUNT", 2, 8), o)
	if a.IPC != b.IPC {
		t.Fatalf("nondeterministic measurement: %v vs %v", a.IPC, b.IPC)
	}
}

func TestSeriesOfShape(t *testing.T) {
	pts := seriesOf("x", []int{1, 2}, func(threads int) smt.Config {
		return MustFetchScheme(threads, "RR", 1, 8)
	})
	if len(pts) != 2 || pts[0].Threads != 1 || pts[1].Threads != 2 {
		t.Fatalf("series shape wrong: %+v", pts)
	}
	if pts[0].Series != "x" || pts[0].Label != "x" {
		t.Fatalf("series/label %q/%q", pts[0].Series, pts[0].Label)
	}
}

func TestFig4CoversSchemes(t *testing.T) {
	out := mustRunSerial(t, "fig4", Opts{Runs: 1, Warmup: 2_000, Measure: 4_000, Seed: 1}).SeriesMap()
	for _, name := range []string{"RR.1.8", "RR.2.4", "RR.4.2", "RR.2.8"} {
		pts, ok := out[name]
		if !ok {
			t.Fatalf("missing scheme %s", name)
		}
		if len(pts) != len(ThreadCounts) {
			t.Fatalf("%s has %d points", name, len(pts))
		}
	}
}

func TestTable5RowsComplete(t *testing.T) {
	rows := Table5Rows(mustRunSerial(t, "table5", Opts{Runs: 1, Warmup: 2_000, Measure: 4_000, Seed: 1}))
	if len(rows) != 4 {
		t.Fatalf("want 4 issue policies, got %d", len(rows))
	}
	for _, r := range rows {
		for _, tc := range ThreadCounts {
			if r.IPC[tc] <= 0 {
				t.Fatalf("%s missing T=%d", r.Policy, tc)
			}
		}
	}
}

func TestSec7NamesCoverPaperStudies(t *testing.T) {
	want := []string{"infinite FUs", "64-entry searchable IQ", "perfect branch prediction",
		"infinite memory bandwidth", "excess registers 70"}
	have := map[string]bool{}
	for _, c := range sec7Cases() {
		have[c.name] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing Section 7 study %q", w)
		}
	}
}

func TestSec7DeltaMath(t *testing.T) {
	r := Sec7Result{Baseline: 2.0, Modified: 2.2}
	if d := r.Delta(); d < 0.099 || d > 0.101 {
		t.Fatalf("delta %v", d)
	}
	if (Sec7Result{}).Delta() != 0 {
		t.Fatal("zero baseline should yield zero delta")
	}
}

func TestFig7PointsValid(t *testing.T) {
	pts := mustRunSerial(t, "fig7", Opts{Runs: 1, Warmup: 2_000, Measure: 4_000, Seed: 1}).Lookup("200 regs")
	if len(pts) != 5 {
		t.Fatalf("want 5 contexts, got %d", len(pts))
	}
	for _, p := range pts {
		if p.IPC <= 0 {
			t.Fatalf("T=%d produced no throughput", p.Threads)
		}
	}
}
