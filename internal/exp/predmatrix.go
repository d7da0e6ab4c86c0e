package exp

import (
	"fmt"

	"repro/smt"
)

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
