package dist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// benchGrid is a wider grid than testGrid so the per-job protocol cost
// averages over enough jobs to mean something while staying CI-cheap.
func benchGrid() exp.Experiment {
	var specs []exp.PointSpec
	for _, alg := range []string{"RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN"} {
		for _, num1 := range []int{1, 2} {
			cfg := exp.MustFetchScheme(2, alg, num1, 8)
			specs = append(specs, exp.PointSpec{Series: alg, Label: cfg.FetchName(), Threads: 2, Config: cfg})
		}
	}
	return exp.Experiment{
		Name:   "distbench",
		Title:  "distributed protocol-cost grid",
		Shape:  exp.Shape{Series: 5, Points: len(specs)},
		Points: func() []exp.PointSpec { return specs },
	}
}

// TestProtocolCost times the bench grid through the cluster with a no-op
// executor: wall clock here is pure protocol — leasing, result delivery,
// scheduling, JSON. It pins the per-job protocol budget: a worker leases
// as many jobs as it has free slots in one round trip and posts one result
// per job.
func TestProtocolCost(t *testing.T) {
	e := benchGrid()
	o := exp.Opts{Runs: 2, Warmup: 200, Measure: 1500, Seed: 1}
	jobs := len(e.Points()) * o.Runs
	noop := func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results { return smt.Results{} }
	coord, url := newTestCoordinator(t, Options{})
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerOptions{Coordinator: url, Name: fmt.Sprintf("n%d", i),
			Slots: 2, Exec: noop, Backoff: 50 * time.Millisecond})
		defer startWorker(t, w)()
	}
	waitFor(t, "register", func() bool { return coord.Capacity() == 4 })

	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := (exp.Runner{Workers: 8, Dispatch: coord}).RunExperiment(context.Background(), e, o); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(start); i == 0 || el < best {
			best = el
		}
	}
	perJob := best / time.Duration(jobs)
	t.Logf("%d no-op jobs through the cluster: %v (%v/job)", jobs, best, perJob)
	// Generous ceiling for slow shared CI hosts; the measured cost is
	// ~0.1ms/job.
	// Race instrumentation slows the whole path ~8x, so the bound scales
	// rather than asserting absolute wall time there.
	budget := time.Millisecond
	if raceEnabled {
		budget *= 10
	}
	if perJob > budget {
		t.Errorf("protocol overhead %v/job exceeds %v budget", perJob, budget)
	}
}
