package exp

import "repro/smt"

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
			for _, alg := range Fig5Algs {
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
		Points: func() []PointSpec {
			return seriesOf("200 regs", []int{1, 2, 3, 4, 5}, func(t int) smt.Config {
				cfg := ICount28(t)
				cfg.Rename.ExcessRegs = 0
				cfg.Rename.TotalRegs = 200
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

// Fig3Result extracts Figure 3 — base RR.1.8 throughput versus thread
// count, plus the unmodified superscalar point — from an engine result.
func Fig3Result(r *ExperimentResult) (base []Point, superscalar Point) {
	base = r.Lookup("RR.1.8")
	if ss := r.Lookup("superscalar"); len(ss) > 0 {
		superscalar = ss[0]
	}
	return base, superscalar
}

// Table3Row is one column of Table 3 (metrics at a thread count) for the
// base RR.1.8 architecture.
type Table3Row struct {
	Threads int
	Res     smt.Results
}

// Table3Rows extracts Table 3's columns from an engine result.
func Table3Rows(r *ExperimentResult) []Table3Row {
	pts := r.Lookup("RR.1.8")
	rows := make([]Table3Row, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, Table3Row{Threads: p.Threads, Res: p.Results})
	}
	return rows
}

// Fig5Algs lists the fetch-choice policies of Figure 5.
var Fig5Algs = []string{"RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN"}

func fmtScheme(n1, n2 int) string {
	return "." + string(rune('0'+n1)) + "." + string(rune('0'+n2))
}

// Table4Results extracts Table 4 — RR.2.8 and ICOUNT.2.8 at 8 threads next
// to the 1-thread baseline — from an engine result.
func Table4Results(r *ExperimentResult) (one, rr, icount smt.Results) {
	pick := func(series string) smt.Results {
		if pts := r.Lookup(series); len(pts) > 0 {
			return pts[0].Results
		}
		return smt.Results{}
	}
	return pick("1 thread"), pick("RR.2.8"), pick("ICOUNT.2.8")
}

// Table5Row is one issue policy's results across thread counts.
type Table5Row struct {
	Policy     string
	IPC        map[int]float64
	WrongPath  float64 // useless wrong-path issue fraction at 8 threads
	Optimistic float64 // squashed optimistic issue fraction at 8 threads
}

// Table5Rows extracts Table 5's rows from an engine result.
func Table5Rows(r *ExperimentResult) []Table5Row {
	rows := make([]Table5Row, 0, len(r.Series))
	for _, s := range r.Series {
		row := Table5Row{Policy: s.Name, IPC: map[int]float64{}}
		for _, p := range s.Points {
			row.IPC[p.Threads] = p.IPC
			if p.Threads == 8 {
				row.WrongPath = p.Results.WrongPathIssued
				row.Optimistic = p.Results.OptimisticSquash
			}
		}
		rows = append(rows, row)
	}
	return rows
}
