package exp

import (
	"fmt"

	"repro/smt"
)

// axis is the dimension an ad-hoc comparison sweeps — one series per
// registered name: how a name is checked, how it lands in a config, and
// how the comparison words its errors, series and title.
type axis struct {
	exp    string // experiment name
	kind   string // the comparison in argument errors: "policy", "predictor"
	each   string // one swept value in the empty-list error
	noun   string // one swept value in the name errors
	has    func(name string) bool
	all    func() []string
	apply  func(cfg *smt.Config, name string)
	series func(name string) string
	title  func(n int, scheme, issue string) string
}

// PolicyComparison builds an ad-hoc experiment comparing registered fetch
// policies head-to-head under one issue policy and one num1.num2 fetch
// partitioning, across the paper's standard thread counts up to
// maxThreads. It is how custom (caller-registered) policies enter the
// engine without a registry preset: one series per fetch policy, the
// paper's paired methodology (shared rotations and seeds per point)
// applying as in every other experiment, and every job content-addressed
// by policy name through the usual cache key.
func PolicyComparison(fetch []string, issue string, maxThreads, num1, num2 int) (Experiment, error) {
	return comparison(axis{
		exp: "adhoc", kind: "policy", each: "fetch policy", noun: "fetch policy",
		has:    func(name string) bool { _, ok := smt.LookupFetchPolicy(name); return ok },
		all:    smt.FetchPolicies,
		apply:  func(cfg *smt.Config, name string) { cfg.FetchPolicy = smt.FetchAlg(name) },
		series: func(name string) string { return fmt.Sprintf("%s.%d.%d", name, num1, num2) },
		title: func(n int, _, issue string) string {
			return fmt.Sprintf("ad-hoc fetch policy comparison (%d policies, issue %s)", n, issue)
		},
	}, fetch, "", issue, maxThreads, num1, num2)
}

// PredictorComparison is PolicyComparison for registered branch predictors,
// swept under one fetch policy (empty: RR) — how custom predictors enter
// the engine without a registry preset. Predictor names flow into the
// config fingerprint, so every job is content-addressed as usual.
func PredictorComparison(predictors []string, fetchAlg, issue string, maxThreads, num1, num2 int) (Experiment, error) {
	return comparison(axis{
		exp: "adhoc-pred", kind: "predictor", each: "predictor", noun: "branch predictor",
		has:    smt.HasPredictor,
		all:    smt.Predictors,
		apply:  func(cfg *smt.Config, name string) { cfg.Branch.Predictor = name },
		series: func(name string) string { return name },
		title: func(n int, scheme, issue string) string {
			return fmt.Sprintf("ad-hoc branch predictor comparison (%d predictors, %s, issue %s)", n, scheme, issue)
		},
	}, predictors, fetchAlg, issue, maxThreads, num1, num2)
}

// comparison builds the experiment: one series per name on ax, each the
// fetchAlg.num1.num2 scheme under issue with the name applied, at the
// paper's standard thread counts below maxThreads and at maxThreads itself
// (so asking for 5 contexts measures 5 contexts).
func comparison(ax axis, names []string, fetchAlg, issue string, maxThreads, num1, num2 int) (Experiment, error) {
	if len(names) == 0 {
		return Experiment{}, fmt.Errorf("exp: %s comparison needs at least one %s", ax.kind, ax.each)
	}
	if maxThreads < 1 {
		return Experiment{}, fmt.Errorf("exp: %s comparison maxThreads = %d, want >= 1", ax.kind, maxThreads)
	}
	if num1 < 1 || num2 < 1 {
		return Experiment{}, fmt.Errorf("exp: %s comparison fetch partitioning %d.%d, both must be >= 1", ax.kind, num1, num2)
	}
	if fetchAlg == "" {
		fetchAlg = string(smt.FetchRR)
	}
	if _, ok := smt.LookupFetchPolicy(fetchAlg); !ok {
		return Experiment{}, fmt.Errorf("exp: unknown fetch policy %q (registered: %v)", fetchAlg, smt.FetchPolicies())
	}
	if issue == "" {
		issue = string(smt.IssueOldestFirst)
	}
	if _, ok := smt.LookupIssuePolicy(issue); !ok {
		return Experiment{}, fmt.Errorf("exp: unknown issue policy %q (registered: %v)", issue, smt.IssuePolicies())
	}
	seen := map[string]bool{}
	for _, name := range names {
		if !ax.has(name) {
			return Experiment{}, fmt.Errorf("exp: unknown %s %q (registered: %v)", ax.noun, name, ax.all())
		}
		if seen[name] {
			return Experiment{}, fmt.Errorf("exp: %s %q listed twice", ax.noun, name)
		}
		seen[name] = true
	}
	threads := make([]int, 0, len(ThreadCounts)+1)
	for _, t := range ThreadCounts {
		if t < maxThreads {
			threads = append(threads, t)
		}
	}
	threads = append(threads, maxThreads)
	names = append([]string(nil), names...)
	return Experiment{
		Name:  ax.exp,
		Title: ax.title(len(names), fmt.Sprintf("%s.%d.%d", fetchAlg, num1, num2), issue),
		Shape: Shape{Series: len(names), Points: len(names) * len(threads)},
		Print: printSeries,
		Points: func() []PointSpec {
			pts := make([]PointSpec, 0, len(names)*len(threads))
			for _, name := range names {
				pts = append(pts, seriesOf(ax.series(name), threads, func(t int) smt.Config {
					cfg := MustFetchScheme(t, fetchAlg, num1, num2)
					cfg.IssuePolicy = smt.IssueAlg(issue)
					ax.apply(&cfg, name)
					return cfg
				})...)
			}
			return pts
		},
	}, nil
}
