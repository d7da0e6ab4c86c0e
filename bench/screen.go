//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/smt"
)

// The simulator has a livelock (found while building this benchmark, not
// fixed by it; see README.md "Known issue"): on some workload seeds a
// hardware context stops committing, and once every context of a machine
// has, the run never ends. A stalled job wedges an smtd worker slot for
// good, so the workloads cannot recover from one at run time. Of the
// workload seeds 1..96, 33 stall one of the six matrix machines within the
// core_matrix depth or one of the 41 grid jobs within the sweep budgets.
//
// Across the seeds that do run, IPC differs by a tenth and more, which
// would swamp a regression bound of a tenth. So the simulated programs are
// pinned, as the paper's SPEC92 mix is: pinned lists the first sixteen
// seeds that pass the screen (`bench -screen 24` regenerates it; a change
// to the modelled machine may need that), and --seed decides what is
// random about the load instead — the order sweeps are submitted in, the
// order of the grid points in each request, the order machines are stepped
// in, and which jobs the output checks re-simulate.
var pinned = []uint64{1, 2, 4, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 19, 21}

// coreSeed is the workload seed of the core_matrix machines, the layer
// probes, and the svc_warm sweeps.
var coreSeed = pinned[0]

// sweepSeeds returns the exp.Opts.Seed of each of a run's n cold sweeps:
// the first n pinned seeds in an order drawn from rng. Distinct seeds make
// every sweep cold: new result keys, checkpoint keys and traces.
func sweepSeeds(rng *rand.Rand, n int) []uint64 {
	n = min(n, len(pinned))
	out := make([]uint64, n)
	for i, k := range rng.Perm(n) {
		out[i] = pinned[k]
	}
	return out
}

// errStalled marks a run that hit its cycle budget before its instruction
// budget.
var errStalled = errors.New("the simulated machine stopped committing (simulator livelock, see bench/README.md)")

// stalls reports whether a fresh machine fails to commit perThread
// instructions per context.
func stalls(ctx context.Context, cfg smt.Config, seed uint64, perThread int64) (bool, error) {
	sim, err := smt.New(cfg, smt.WorkloadMix(cfg.Threads, 0, seed))
	if err != nil {
		return false, err
	}
	if _, err = runGuarded(ctx, sim, perThread*int64(cfg.Threads)); errors.Is(err, errStalled) {
		return true, nil
	}
	return false, err
}

// runGuarded is sim.Run(instructions) that gives up, with errStalled,
// after twice as many cycles as instructions (no live machine runs below
// 0.5 IPC overall), and stops when ctx ends.
func runGuarded(ctx context.Context, sim *smt.Simulator, instructions int64) (smt.Results, error) {
	before := sim.Results().Committed
	se, err := sim.Start(ctx, smt.RunSpec{Instructions: instructions, MaxCycles: 2 * instructions})
	if err != nil {
		return smt.Results{}, err
	}
	res, err := se.Finish()
	if err == nil && res.Committed-before < instructions {
		err = errStalled
	}
	return res, err
}

// screenSeeds prints the seeds in 1..upTo that pass the screen at the full
// workload sizes, as the body of the screened list, two seeds at a time.
func screenSeeds(ctx context.Context, upTo int, w io.Writer) error {
	z := fullSizes(0)
	passes := func(seed uint64) (bool, error) {
		for _, m := range coreMatrix {
			if bad, err := stalls(ctx, m.cfg(), seed, z.coreWarmup+int64(z.coreMinChunks)*z.coreChunk); bad || err != nil {
				return false, err
			}
		}
		for _, p := range z.points {
			if bad, err := stalls(ctx, p.Config, seed, z.warmup+z.measure); bad || err != nil {
				return false, err
			}
		}
		return true, nil
	}
	good := make([]bool, upTo+1)
	errs := make([]error, upTo+1)
	seeds := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range seeds {
				good[s], errs[s] = passes(uint64(s))
			}
		}()
	}
	for s := 1; s <= upTo; s++ {
		seeds <- s
	}
	close(seeds)
	wg.Wait()
	for s := 1; s <= upTo; s++ {
		if errs[s] != nil {
			return errs[s]
		}
		if good[s] {
			fmt.Fprintf(w, "%d, ", s)
		}
	}
	fmt.Fprintln(w)
	return nil
}
