package exp

import (
	"fmt"

	"repro/smt"
)

// PredictorComparison builds an ad-hoc experiment sweeping registered
// branch predictors against each other under one fetch policy (with its
// num1.num2 partitioning) and one issue policy, across the paper's
// standard thread counts up to maxThreads. It is how custom (caller-
// registered) predictors enter the engine without a registry preset —
// the predictor analogue of PolicyComparison, with the same paired
// methodology and content-addressed caching (predictor names flow into
// the config fingerprint).
func PredictorComparison(predictors []string, fetchAlg, issue string, maxThreads, num1, num2 int) (Experiment, error) {
	if len(predictors) == 0 {
		return Experiment{}, fmt.Errorf("exp: predictor comparison needs at least one predictor")
	}
	if maxThreads < 1 {
		return Experiment{}, fmt.Errorf("exp: predictor comparison maxThreads = %d, want >= 1", maxThreads)
	}
	if num1 < 1 || num2 < 1 {
		return Experiment{}, fmt.Errorf("exp: predictor comparison fetch partitioning %d.%d, both must be >= 1", num1, num2)
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
	for _, name := range predictors {
		if !smt.HasPredictor(name) {
			return Experiment{}, fmt.Errorf("exp: unknown branch predictor %q (registered: %v)", name, smt.Predictors())
		}
		if seen[name] {
			return Experiment{}, fmt.Errorf("exp: branch predictor %q listed twice", name)
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
	preds := append([]string(nil), predictors...)
	return Experiment{
		Name:  "adhoc-pred",
		Title: fmt.Sprintf("ad-hoc branch predictor comparison (%d predictors, %s.%d.%d, issue %s)", len(preds), fetchAlg, num1, num2, issue),
		Shape: Shape{Series: len(preds), Points: len(preds) * len(threads)},
		Points: func() []PointSpec {
			pts := make([]PointSpec, 0, len(preds)*len(threads))
			for _, name := range preds {
				name := name
				pts = append(pts, seriesOf(name, threads, func(t int) smt.Config {
					cfg := MustFetchScheme(t, fetchAlg, num1, num2)
					cfg.IssuePolicy = smt.IssueAlg(issue)
					cfg.Branch.Predictor = name
					return cfg
				})...)
			}
			return pts
		},
	}, nil
}

// predMatrixThreads keeps the registry preset small enough for CI smoke
// sweeps while still crossing the single-thread and saturated regimes.
var predMatrixThreads = []int{2, 8}

func init() {
	// predmatrix: predictor quality interacts with fetch policy — BRCOUNT
	// deprioritizes exactly the speculation a weak predictor makes risky,
	// so the predictor ordering can differ under different thread choosers.
	// The matrix crosses three direction schemes with three fetch policies
	// at two occupancies.
	predictors := []string{string(smt.PredGshare), string(smt.PredSmiths), string(smt.PredGskewed)}
	fetchAlgs := []string{string(smt.FetchRR), string(smt.FetchICount), string(smt.FetchBRCount)}
	Register(Experiment{
		Name:  "predmatrix",
		Title: "Branch predictor x fetch policy matrix (2.8 partitioning)",
		Shape: Shape{Series: len(predictors) * len(fetchAlgs), Points: len(predictors) * len(fetchAlgs) * len(predMatrixThreads)},
		Points: func() []PointSpec {
			var pts []PointSpec
			for _, pred := range predictors {
				for _, alg := range fetchAlgs {
					pred, alg := pred, alg
					series := fmt.Sprintf("%s/%s.2.8", pred, alg)
					pts = append(pts, seriesOf(series, predMatrixThreads, func(t int) smt.Config {
						cfg := MustFetchScheme(t, alg, 2, 8)
						cfg.Branch.Predictor = pred
						return cfg
					})...)
				}
			}
			return pts
		},
	})

	// predvfr: the confidence-throttled variable fetch rate against the
	// fixed-rate baseline, under the paper's winning ICOUNT.2.8 scheme.
	Register(Experiment{
		Name:  "predvfr",
		Title: "Variable fetch rate (confidence-throttled) vs fixed rate, ICOUNT.2.8",
		Shape: Shape{Series: 2, Points: 2 * len(predMatrixThreads)},
		Points: func() []PointSpec {
			pts := seriesOf("fixed-rate", predMatrixThreads, ICount28)
			pts = append(pts, seriesOf("var-fetch-rate", predMatrixThreads, func(t int) smt.Config {
				cfg := ICount28(t)
				cfg.VarFetchRate = true
				return cfg
			})...)
			return pts
		},
	})
}
