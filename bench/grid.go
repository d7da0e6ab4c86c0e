//go:build linux

package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/exp"
	"repro/smt"
)

// The load is pinned here, not taken from the internal/exp registry or
// cmd/benchcore, so later edits there cannot change what is measured.

// machine is one point of the core_matrix workload.
type machine struct {
	name string
	cfg  func() smt.Config
}

func icount28(threads int) smt.Config {
	c := smt.DefaultConfig(threads)
	c.FetchPolicy = smt.FetchICount
	c.FetchThreads = 2
	return c
}

// coreMatrix is the six-machine matrix cmd/benchcore has tracked since
// PR 5: the superscalar baseline, the default RR machine, ICOUNT.2.8, its
// OPT_LAST variant (optimism computation), IQPOSN (per-cycle queue scan)
// and the mispredict-heavy never-taken predictor with variable fetch rate.
var coreMatrix = []machine{
	{"superscalar", smt.Superscalar},
	{"rr18x8", func() smt.Config { return smt.DefaultConfig(8) }},
	{"icount28x8", func() smt.Config { return icount28(8) }},
	{"icount28x8_optlast", func() smt.Config {
		c := icount28(8)
		c.IssuePolicy = smt.IssueOptLast
		return c
	}},
	{"iqposn28x8", func() smt.Config {
		c := icount28(8)
		c.FetchPolicy = smt.FetchIQPosn
		return c
	}},
	{"icount28x8_none_vfr", func() smt.Config {
		c := icount28(8)
		c.Branch.Predictor = smt.PredNone
		c.VarFetchRate = true
		return c
	}},
}

// gridPoint is one inline-grid cell as POST /v1/sweep takes it.
type gridPoint struct {
	Series  string          `json:"series"`
	Label   string          `json:"label"`
	Threads int             `json:"threads"`
	Config  json.RawMessage `json:"config"`
}

const (
	gridName       = "bench-grid"
	icountSeries   = "ICOUNT.2.8"
	baselineSeries = "superscalar"
)

// sweepGrid is the pinned service grid: the paper's five fetch policies x
// {1.8, 2.8} partitioning x {2,4,6,8} threads, plus the one-thread
// unmodified superscalar so that every sweep result carries both terms of
// the paper's 2.5x headline ratio. smoke keeps 8 points of it.
func sweepGrid(smoke bool) (points []exp.PointSpec) {
	add := func(alg smt.FetchAlg, num1 int, threads ...int) {
		series := fmt.Sprintf("%s.%d.8", alg, num1)
		for _, t := range threads {
			c := smt.DefaultConfig(t)
			c.FetchPolicy = alg
			c.FetchThreads = num1
			points = append(points, exp.PointSpec{Series: series, Label: series, Threads: t, Config: c})
		}
	}
	if smoke {
		add(smt.FetchRR, 1, 2, 4, 8)
		add(smt.FetchICount, 2, 2, 4, 6, 8)
	} else {
		for _, alg := range []smt.FetchAlg{smt.FetchRR, smt.FetchBRCount, smt.FetchMissCount, smt.FetchICount, smt.FetchIQPosn} {
			add(alg, 1, 2, 4, 6, 8)
			add(alg, 2, 2, 4, 6, 8)
		}
	}
	return append(points, exp.PointSpec{Series: baselineSeries, Label: baselineSeries, Threads: 1, Config: smt.Superscalar()})
}

// wireGrid renders the points as the request's inline grid. Each cell
// carries its full configuration, so the service simulates exactly the
// machines the in-process checks build.
func wireGrid(points []exp.PointSpec) ([]gridPoint, error) {
	out := make([]gridPoint, len(points))
	for i, p := range points {
		raw, err := json.Marshal(p.Config)
		if err != nil {
			return nil, err
		}
		out[i] = gridPoint{Series: p.Series, Label: p.Label, Threads: p.Threads, Config: raw}
	}
	return out, nil
}

// gridExperiment is the in-process twin of the inline sweep: same name,
// title and points, so ExperimentResult.EncodeJSON of a local run is
// byte-comparable with the service's result.
func gridExperiment(points []exp.PointSpec) exp.Experiment {
	series := map[string]bool{}
	for _, p := range points {
		series[p.Series] = true
	}
	return exp.Experiment{
		Name:   gridName,
		Title:  fmt.Sprintf("inline sweep %s (%d points)", gridName, len(points)),
		Shape:  exp.Shape{Series: len(series), Points: len(points)},
		Points: func() []exp.PointSpec { return points },
	}
}

// sizes scales the workloads. full is what BENCHMARK.json measures; smoke
// is the seconds-long configuration the tier-1 test runs.
type sizes struct {
	seconds float64 // measurement window per workload

	points  []exp.PointSpec
	warmup  int64 // per-job warmup instructions (exp.Opts.Warmup)
	measure int64 // per-job measured instructions per thread

	coldSweeps     int   // svc_cold and svc_dist: cold sweeps per run, one per pinned seed
	restoredSweeps int   // svc_warm: restored sweeps per run
	primeMeasure   int64 // svc_warm priming sweep's measure budget
	hitResubmits   int   // svc_warm hit phase, over 2 clients
	checkJobs      int   // jobs re-simulated in-process per sampled check

	coreWarmup    int64 // per-thread warmup before the timed chunks
	coreChunk     int64 // per-thread instructions per timed Run
	coreMinChunks int   // chunks whose cumulative results are the simulated metrics

	probeReps int // repetitions per timed layer probe
}

// fullSizes sizes the workloads for a window of seconds. On the two cores
// this was sized on, a cold sweep of the grid takes about five seconds, a
// restored one about three, and the hit phase three to four. The service
// workloads turn the window into a fixed number of sweeps rather than a
// deadline: which seeds a time-boxed run got through would change its
// rates, and its counters would not repeat.
func fullSizes(seconds float64) sizes {
	return sizes{
		seconds:        seconds,
		coldSweeps:     max(1, int(seconds/5+0.5)),
		restoredSweeps: max(1, int(seconds/4+0.5)),
		points:         sweepGrid(false),
		warmup:         30_000, measure: 60_000,
		primeMeasure: 20_000, hitResubmits: 1000, checkJobs: 8,
		coreWarmup: 100_000, coreChunk: 50_000, coreMinChunks: 8,
		probeReps: 5,
	}
}

func smokeSizes() sizes {
	return sizes{
		seconds:        0.2,
		coldSweeps:     1,
		restoredSweeps: 2,
		points:         sweepGrid(true),
		warmup:         500, measure: 1000,
		primeMeasure: 800, hitResubmits: 20, checkJobs: 2,
		coreWarmup: 2000, coreChunk: 1000, coreMinChunks: 2,
		probeReps: 2,
	}
}

func (z sizes) opts(seed uint64, measure int64) exp.Opts {
	return exp.Opts{Runs: 1, Warmup: z.warmup, Measure: measure, Seed: seed}
}
