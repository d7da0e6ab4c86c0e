package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/smt"
)

// ThreadCounts is the paper's standard sweep for figures.
var ThreadCounts = []int{1, 2, 4, 6, 8}

// seriesOf builds one series of PointSpecs across thread counts.
func seriesOf(name string, threads []int, mk func(t int) smt.Config) []PointSpec {
	pts := make([]PointSpec, 0, len(threads))
	for _, t := range threads {
		pts = append(pts, PointSpec{Series: name, Label: name, Threads: t, Config: mk(t)})
	}
	return pts
}

func init() {
	Register(Experiment{
		Name:  "fig3",
		Title: "Figure 3: base RR.1.8 throughput vs. threads",
		Shape: Shape{Series: 2, Points: 9},
		Print: func(w io.Writer, r *ExperimentResult) {
			printCurve(w, "threads", "IPC", r.Lookup("RR.1.8"))
			for _, p := range r.Lookup("superscalar") {
				fmt.Fprintf(w, "%-12s %.2f\n", "superscalar", p.IPC)
			}
		},
		Points: func() []PointSpec {
			pts := seriesOf("RR.1.8", []int{1, 2, 3, 4, 5, 6, 7, 8}, func(t int) smt.Config {
				return MustFetchScheme(t, "RR", 1, 8)
			})
			return append(pts, PointSpec{
				Series: "superscalar", Label: "superscalar", Threads: 1, Config: smt.Superscalar(),
			})
		},
	})
	Register(Experiment{
		Name:  "table3",
		Title: "Table 3: low-level metrics at 1, 4, 8 threads (RR.1.8)",
		Shape: Shape{Series: 1, Points: 3},
		Print: printTable3,
		Points: func() []PointSpec {
			return seriesOf("RR.1.8", []int{1, 4, 8}, func(t int) smt.Config {
				return MustFetchScheme(t, "RR", 1, 8)
			})
		},
	})
	Register(Experiment{
		Name:  "fig4",
		Title: "Figure 4: fetch partitioning schemes",
		Shape: Shape{Series: 4, Points: 20},
		Points: func() []PointSpec {
			var pts []PointSpec
			for _, s := range []struct {
				name       string
				num1, num2 int
			}{
				{"RR.1.8", 1, 8}, {"RR.2.4", 2, 4}, {"RR.4.2", 4, 2}, {"RR.2.8", 2, 8},
			} {
				s := s
				pts = append(pts, seriesOf(s.name, ThreadCounts, func(t int) smt.Config {
					return MustFetchScheme(t, "RR", s.num1, s.num2)
				})...)
			}
			return pts
		},
	})
	Register(Experiment{
		Name:  "fig5",
		Title: "Figure 5: fetch-choice policies",
		Shape: Shape{Series: 10, Points: 40},
		Points: func() []PointSpec {
			var pts []PointSpec
			for _, alg := range []string{"RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN"} {
				for _, scheme := range []struct{ num1, num2 int }{{1, 8}, {2, 8}} {
					alg, scheme := alg, scheme
					name := alg + fmtScheme(scheme.num1, scheme.num2)
					pts = append(pts, seriesOf(name, []int{2, 4, 6, 8}, func(t int) smt.Config {
						return MustFetchScheme(t, alg, scheme.num1, scheme.num2)
					})...)
				}
			}
			return pts
		},
	})
	Register(Experiment{
		Name:  "table4",
		Title: "Table 4: RR vs ICOUNT low-level metrics",
		Shape: Shape{Series: 3, Points: 3},
		Print: printTable4,
		Points: func() []PointSpec {
			return []PointSpec{
				{Series: "1 thread", Label: "RR.1.8", Threads: 1, Config: MustFetchScheme(1, "RR", 1, 8)},
				{Series: "RR.2.8", Label: "RR.2.8", Threads: 8, Config: MustFetchScheme(8, "RR", 2, 8)},
				{Series: "ICOUNT.2.8", Label: "ICOUNT.2.8", Threads: 8, Config: MustFetchScheme(8, "ICOUNT", 2, 8)},
			}
		},
	})
	Register(Experiment{
		Name:  "fig6",
		Title: "Figure 6: BIGQ and ITAG on top of ICOUNT",
		Shape: Shape{Series: 6, Points: 30},
		Points: func() []PointSpec {
			variants := []struct {
				name string
				mod  func(*smt.Config)
			}{
				{"", func(*smt.Config) {}},
				{"BIGQ,", func(c *smt.Config) { c.BigQ = true }},
				{"ITAG,", func(c *smt.Config) { c.ITAG = true }},
			}
			var pts []PointSpec
			for _, v := range variants {
				for _, scheme := range []struct{ num1, num2 int }{{1, 8}, {2, 8}} {
					v, scheme := v, scheme
					name := v.name + "ICOUNT" + fmtScheme(scheme.num1, scheme.num2)
					pts = append(pts, seriesOf(name, ThreadCounts, func(t int) smt.Config {
						cfg := MustFetchScheme(t, "ICOUNT", scheme.num1, scheme.num2)
						v.mod(&cfg)
						return cfg
					})...)
				}
			}
			return pts
		},
	})
	Register(Experiment{
		Name:  "table5",
		Title: "Table 5: issue policies",
		Shape: Shape{Series: 4, Points: 20},
		Print: printTable5,
		Points: func() []PointSpec {
			var pts []PointSpec
			for _, pol := range issuePolicies() {
				pol := pol
				pts = append(pts, seriesOf(pol.name, ThreadCounts, func(t int) smt.Config {
					cfg := ICount28(t)
					pol.alg(&cfg)
					return cfg
				})...)
			}
			return pts
		},
	})
	Register(Experiment{
		Name:  "sec7",
		Title: "Section 7: bottleneck studies around ICOUNT.2.8",
		Shape: Shape{Series: 14, Points: 20},
		Print: printSec7,
		Points: func() []PointSpec {
			pts := seriesOf(sec7BaselineSeries, []int{1, 4, 8}, ICount28)
			for _, c := range sec7Cases() {
				c := c
				pts = append(pts, seriesOf(c.name, c.threads, func(t int) smt.Config {
					cfg := ICount28(t)
					c.mod(&cfg)
					return cfg
				})...)
			}
			return pts
		},
	})
	Register(Experiment{
		Name:  "fig7",
		Title: "Figure 7: 200 physical registers, 1-5 contexts",
		Shape: Shape{Series: 1, Points: 5},
		Print: func(w io.Writer, r *ExperimentResult) {
			printCurve(w, "contexts", "IPC (200 physical registers)", r.Lookup("200 regs"))
		},
		Points: func() []PointSpec {
			return seriesOf("200 regs", []int{1, 2, 3, 4, 5}, func(t int) smt.Config {
				cfg := ICount28(t)
				cfg.Rename.ExcessRegs = 200 - 32*t
				return cfg
			})
		},
	})
}

// issuePolicies lists Table 5's issue policies in paper order.
func issuePolicies() []struct {
	name string
	alg  func(*smt.Config)
} {
	return []struct {
		name string
		alg  func(*smt.Config)
	}{
		{"OLDEST", func(c *smt.Config) { c.IssuePolicy = smt.IssueOldestFirst }},
		{"OPT_LAST", func(c *smt.Config) { c.IssuePolicy = smt.IssueOptLast }},
		{"SPEC_LAST", func(c *smt.Config) { c.IssuePolicy = smt.IssueSpecLast }},
		{"BRANCH_FIRST", func(c *smt.Config) { c.IssuePolicy = smt.IssueBranchFirst }},
	}
}

func fmtScheme(n1, n2 int) string {
	return "." + string(rune('0'+n1)) + "." + string(rune('0'+n2))
}

// printSeries is the layout of a figure: one row per series, sorted by
// name, one IPC column per thread count.
func printSeries(w io.Writer, r *ExperimentResult) {
	series := append([]SeriesResult(nil), r.Series...)
	sort.SliceStable(series, func(i, j int) bool { return series[i].Name < series[j].Name })
	fmt.Fprintf(w, "%-20s", "scheme\\threads")
	for _, p := range series[0].Points {
		fmt.Fprintf(w, "%8d", p.Threads)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-20s", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(w, "%8.2f", p.IPC)
		}
		fmt.Fprintln(w)
	}
}

// printCurve is the layout of a single-line figure: IPC down a column of
// thread counts.
func printCurve(w io.Writer, xHead, yHead string, pts []Point) {
	fmt.Fprintf(w, "%-12s %s\n", xHead, yHead)
	for _, p := range pts {
		fmt.Fprintf(w, "%-12d %.2f\n", p.Threads, p.IPC)
	}
}

// metricTable starts a metric × configuration table — "metric", then one
// heading per configuration — and returns what prints one metric's row.
func metricTable(w io.Writer, nameW, colW int, heads []string, cols []smt.Results) func(name string, cell func(smt.Results) string) {
	fmt.Fprintf(w, "%-*s", nameW, "metric")
	for _, h := range heads {
		fmt.Fprintf(w, "%*s", colW, h)
	}
	fmt.Fprintln(w)
	return func(name string, cell func(smt.Results) string) {
		fmt.Fprintf(w, "%-*s", nameW, name)
		for _, c := range cols {
			fmt.Fprintf(w, "%*s", colW, cell(c))
		}
		fmt.Fprintln(w)
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }

// printTable3 is one column per thread count of the base architecture, the
// paper's metrics down the side, then where every cycle of fetch bandwidth
// went: the five fetch outcomes partition the run's cycles exactly (the
// core's fetch-accounting invariant).
func printTable3(w io.Writer, r *ExperimentResult) {
	var heads []string
	var cols []smt.Results
	for _, p := range r.Lookup("RR.1.8") {
		heads, cols = append(heads, fmt.Sprintf("T=%d", p.Threads)), append(cols, p.Results)
	}
	row := metricTable(w, 40, 10, heads, cols)
	row("throughput (IPC)", func(r smt.Results) string { return f2(r.IPC) })
	row("out-of-registers (% of cycles)", func(r smt.Results) string { return pct(r.OutOfRegisters) })
	for i, level := range []string{"I", "D", "L2", "L3"} {
		row(level+" cache miss rate", func(r smt.Results) string { return pct(r.Caches[i].MissRate) })
		row("-misses per thousand instructions", func(r smt.Results) string { return f0(r.Caches[i].PerK) })
	}
	row("branch misprediction rate", func(r smt.Results) string { return pct(r.BranchMispredict) })
	row("jump misprediction rate", func(r smt.Results) string { return pct(r.JumpMispredict) })
	row("integer IQ-full (% of cycles)", func(r smt.Results) string { return pct(r.IntIQFull) })
	row("fp IQ-full (% of cycles)", func(r smt.Results) string { return pct(r.FPIQFull) })
	row("avg (combined) queue population", func(r smt.Results) string { return f0(r.AvgQueuePop) })
	row("wrong-path instructions fetched", func(r smt.Results) string { return pct(r.WrongPathFetched) })
	row("wrong-path instructions issued", func(r smt.Results) string { return pct(r.WrongPathIssued) })
	row("fetch delivered instructions", func(r smt.Results) string { return pct(r.FetchCyclesFrac) })
	row("lost: IQ back-pressure", func(r smt.Results) string { return pct(r.FetchLostBackPressure) })
	row("lost: no fetchable thread", func(r smt.Results) string { return pct(r.FetchLostNoThread) })
	row("lost: I-cache miss", func(r smt.Results) string { return pct(r.FetchLostIMiss) })
	row("lost: cache-fill bank conflict", func(r smt.Results) string { return pct(r.FetchLostBankConflict) })
}

// printTable4 is one column per series — the 1-thread baseline, RR.2.8 and
// ICOUNT.2.8 at 8 threads — each a single point.
func printTable4(w io.Writer, r *ExperimentResult) {
	var heads []string
	var cols []smt.Results
	for _, s := range r.Series {
		heads, cols = append(heads, s.Name), append(cols, s.Points[0].Results)
	}
	row := metricTable(w, 36, 13, heads, cols)
	row("throughput (IPC)", func(r smt.Results) string { return f2(r.IPC) })
	row("integer IQ-full (% of cycles)", func(r smt.Results) string { return pct(r.IntIQFull) })
	row("fp IQ-full (% of cycles)", func(r smt.Results) string { return pct(r.FPIQFull) })
	row("avg queue population", func(r smt.Results) string { return f0(r.AvgQueuePop) })
	row("out-of-registers (% of cycles)", func(r smt.Results) string { return pct(r.OutOfRegisters) })
}

// printTable5 is one row per issue policy: IPC at each thread count, then
// the useless wrong-path and squashed optimistic issue fractions at 8 threads.
func printTable5(w io.Writer, r *ExperimentResult) {
	fmt.Fprintf(w, "%-14s", "policy")
	for _, t := range ThreadCounts {
		fmt.Fprintf(w, "%8d", t)
	}
	fmt.Fprintf(w, "%14s%14s\n", "wrong-path", "optimistic")
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-14s", s.Name)
		var at8 smt.Results
		for _, p := range s.Points {
			fmt.Fprintf(w, "%8.2f", p.IPC)
			if p.Threads == 8 {
				at8 = p.Results
			}
		}
		fmt.Fprintf(w, "%13.1f%%%13.1f%%\n", at8.WrongPathIssued*100, at8.OptimisticSquash*100)
	}
}
