//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/exp"
)

func decodeResult(raw []byte) (*exp.ExperimentResult, error) {
	var res exp.ExperimentResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decoding sweep result: %w", err)
	}
	return &res, nil
}

// checkSampled verifies a sweep result against the plain path: the result
// must hold every grid point, and a sample of its jobs drawn from --seed,
// re-simulated here with exp.Simulate (no cache, checkpoint or trace), must
// give the same smt.Results encoding. Sweeps run one rotation, so a point's
// Results are its one job's. The sample is simulated on two goroutines,
// the harness's thread limit on this host.
func (e *env) checkSampled(s sample) error {
	res, err := decodeResult(s.result)
	if err != nil {
		return err
	}
	points := map[string]exp.Point{}
	for _, sr := range res.Series {
		for _, p := range sr.Points {
			points[fmt.Sprintf("%s/%d", p.Label, p.Threads)] = p
		}
	}
	if len(points) != len(e.z.points) {
		return fmt.Errorf("sweep result has %d distinct points, grid has %d", len(points), len(e.z.points))
	}
	picks := e.rng.Perm(len(e.z.points))[:min(e.z.checkJobs, len(e.z.points))]
	errs := make([]error, len(picks))
	var wg sync.WaitGroup
	slots := make(chan struct{}, 2)
	for n, i := range picks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			g := e.z.points[i]
			got, ok := points[fmt.Sprintf("%s/%d", g.Label, g.Threads)]
			want := exp.Simulate(g.Config, 0, exp.JobSeed(s.opts.Seed, 0), s.opts, 0, nil)
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(got.Results)
			if !ok || string(a) != string(b) || got.IPC != want.IPC {
				errs[n] = fmt.Errorf("%s at %d threads, seed %d, measure %d: service result differs from exp.Simulate",
					g.Label, g.Threads, s.opts.Seed, s.opts.Measure)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
