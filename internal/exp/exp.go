// Package exp defines the paper's experiments: one registered value per
// table and figure of the evaluation — its grid, the shape the grid must
// have, and the text layout of its structured result.
//
// Methodology (paper Section 3): every data point averages several runs
// with rotated benchmark-to-thread assignments, each run warming the
// machine before measurement. Absolute instruction budgets are scaled down
// from the paper's T*300M to laptop sizes; all configurations within an
// experiment use identical budgets and seeds, so comparisons are fair.
package exp

import (
	"fmt"

	"repro/smt"
)

// Opts scales an experiment.
type Opts struct {
	Runs    int    `json:"runs"`    // benchmark rotations averaged per data point
	Warmup  int64  `json:"warmup"`  // committed instructions before measurement, per thread
	Measure int64  `json:"measure"` // measured committed instructions per thread
	Seed    uint64 `json:"seed"`
}

// DefaultOpts returns budgets sized for interactive use (a few seconds per
// experiment); raise Measure for tighter confidence.
func DefaultOpts() Opts {
	return Opts{Runs: 4, Warmup: 30_000, Measure: 60_000, Seed: 1}
}

// Normalized returns the opts the engine actually runs: non-positive Runs
// and Measure fall back to minimal defaults. The engine applies it on
// every entry path, so result files always record effective budgets.
func (o Opts) Normalized() Opts {
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Measure <= 0 {
		o.Measure = 10_000
	}
	return o
}

// maxBudget bounds Opts.Warmup and Opts.Measure, both per thread: times
// core.MaxThreads (64), and with SimulateEnv's trace slack, a budget stays
// far inside int64.
const maxBudget int64 = 1 << 40

// Validate is the one statement of the budgets a caller may ask for: runs
// positive, warmup non-negative, measure positive, and neither budget past
// maxBudget. Each message starts with the field's JSON name, so a caller
// prefixes it with its own spelling ("opts." in smtd, "-" in the CLI).
func (o Opts) Validate() error {
	switch {
	case o.Runs <= 0:
		return fmt.Errorf("runs %d must be positive (rotations averaged per data point)", o.Runs)
	case o.Warmup < 0:
		return fmt.Errorf("warmup %d is negative; use 0 to skip warmup", o.Warmup)
	case o.Measure <= 0:
		return fmt.Errorf("measure %d must be positive (instructions measured per thread)", o.Measure)
	case o.Warmup > maxBudget:
		return fmt.Errorf("warmup %d exceeds %d instructions per thread", o.Warmup, maxBudget)
	case o.Measure > maxBudget:
		return fmt.Errorf("measure %d exceeds %d instructions per thread", o.Measure, maxBudget)
	}
	return nil
}

// Point is one measured machine configuration.
type Point struct {
	Label   string      `json:"label"`
	Threads int         `json:"threads"`
	IPC     float64     `json:"ipc"`
	Results smt.Results `json:"results"` // counters from the final rotation run
}

// FetchSchemeConfig builds the paper's alg.num1.num2 fetch configurations.
// alg is any registered fetch policy name — built-in, composite, or
// caller-registered.
func FetchSchemeConfig(threads int, alg string, num1, num2 int) (smt.Config, error) {
	cfg := smt.DefaultConfig(threads)
	if _, ok := smt.LookupFetchPolicy(alg); !ok {
		return cfg, fmt.Errorf("exp: unknown fetch policy %q (registered: %v)", alg, smt.FetchPolicies())
	}
	cfg.FetchPolicy = smt.FetchAlg(alg)
	if num1 > threads {
		num1 = threads
	}
	cfg.FetchThreads = num1
	cfg.FetchPerThread = num2
	return cfg, nil
}

// MustFetchScheme is FetchSchemeConfig for static arguments.
func MustFetchScheme(threads int, alg string, num1, num2 int) smt.Config {
	cfg, err := FetchSchemeConfig(threads, alg, num1, num2)
	if err != nil {
		panic(err)
	}
	return cfg
}

// ICount28 returns the improved baseline of Section 7: ICOUNT.2.8.
func ICount28(threads int) smt.Config {
	return MustFetchScheme(threads, "ICOUNT", 2, 8)
}
