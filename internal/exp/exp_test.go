package exp

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
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
	res := mustRunSerial(t, "fig4", Opts{Runs: 1, Warmup: 2_000, Measure: 4_000, Seed: 1})
	for _, name := range []string{"RR.1.8", "RR.2.4", "RR.4.2", "RR.2.8"} {
		if pts := res.Lookup(name); len(pts) != len(ThreadCounts) {
			t.Fatalf("%s has %d points, want %d", name, len(pts), len(ThreadCounts))
		}
	}
}

// printed lays res out with the named registry experiment's Print and
// returns the table's lines.
func printed(t *testing.T, name string, res *ExperimentResult) []string {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %s", name)
	}
	var b strings.Builder
	e.Print(&b, res)
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
}

// TestTable5Complete: the printed table has one row per issue policy, a
// positive IPC under every thread count of its header, and the 8-thread
// point's two issue-waste fractions at the end.
func TestTable5Complete(t *testing.T) {
	res := mustRunSerial(t, "table5", Opts{Runs: 1, Warmup: 2_000, Measure: 4_000, Seed: 1})
	lines := printed(t, "table5", res)
	if len(lines) != 1+4 {
		t.Fatalf("want a header and 4 issue policies, got:\n%s", strings.Join(lines, "\n"))
	}
	head := strings.Fields(lines[0])
	if len(head) != 1+len(ThreadCounts)+2 {
		t.Fatalf("header %q", lines[0])
	}
	for i, line := range lines[1:] {
		cells := strings.Fields(line)
		s := res.Series[i]
		if len(cells) != len(head) || cells[0] != s.Name {
			t.Fatalf("row %q under header %q, series %s", line, lines[0], s.Name)
		}
		for j, tc := range ThreadCounts {
			if head[1+j] != strconv.Itoa(tc) || s.Points[j].Threads != tc {
				t.Fatalf("column %d is %s / T=%d, want %d", j, head[1+j], s.Points[j].Threads, tc)
			}
			if ipc, err := strconv.ParseFloat(cells[1+j], 64); err != nil || ipc <= 0 {
				t.Fatalf("%s missing T=%d: %q", s.Name, tc, cells[1+j])
			}
		}
		at8 := s.Points[len(s.Points)-1].Results
		want := []string{fmt.Sprintf("%.1f%%", at8.WrongPathIssued*100), fmt.Sprintf("%.1f%%", at8.OptimisticSquash*100)}
		if got := cells[len(cells)-2:]; got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("%s issue waste %v, want %v", s.Name, got, want)
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

// TestSec7DeltaMath: a study's row carries the baseline measured at the same
// thread count and the relative change from it; a thread count without a
// baseline reads as no change rather than dividing by zero.
func TestSec7DeltaMath(t *testing.T) {
	lines := printed(t, "sec7", &ExperimentResult{Series: []SeriesResult{
		{Name: sec7BaselineSeries, Points: []Point{{Threads: 8, IPC: 2.0}}},
		{Name: "faster", Points: []Point{{Threads: 8, IPC: 2.2}}},
		{Name: "slower", Points: []Point{{Threads: 8, IPC: 1.5}, {Threads: 4, IPC: 1.0}}},
	}})
	want := [][]string{
		{"faster", "8", "2.00", "2.20", "+10.0%"},
		{"slower", "8", "2.00", "1.50", "-25.0%"},
		{"slower", "4", "0.00", "1.00", "+0.0%"},
	}
	if len(lines) != 1+len(want) {
		t.Fatalf("printed:\n%s", strings.Join(lines, "\n"))
	}
	for i, w := range want {
		if got := strings.Fields(lines[1+i]); !reflect.DeepEqual(got, w) {
			t.Errorf("row %d is %v, want %v", i, got, w)
		}
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
