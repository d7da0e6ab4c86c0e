// custompredictor registers a hybrid branch predictor from outside the
// simulator internals and races it against the paper's gshare — the
// predictor registry's extension point in action. The hybrid is a
// majority-free chooser: a bimodal (PC-indexed) table and a gshare
// (history-XOR) table predict side by side, and a third table of 2-bit
// counters, trained on which component was right, picks the winner per
// branch — McFarling's combining predictor in miniature. Confidence is
// agreement: when both components vote the same way, the prediction is
// trusted; a split vote marks it low-confidence, which feeds the
// variable-fetch-rate throttle when Config.VarFetchRate is on.
//
// Once registered, the predictor's name works everywhere a built-in's
// does: assigned to Config.Branch.Predictor, swept by the experiment
// engine (with results content-addressed by the name), passed to
// `experiments -predictor`, or posted to smtd in an inline grid.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/smt"
)

// hybridEngine is the direction engine: two component predictors and a
// chooser. All methods are allocation-free — predictor engines run on the
// simulator's zero-allocation cycle loop.
type hybridEngine struct {
	bimodal []uint8 // PC-indexed 2-bit counters
	gshare  []uint8 // (PC ^ history)-indexed 2-bit counters
	choose  []uint8 // PC-indexed chooser: >=2 trusts gshare
	mask    uint64
}

func newHybridEngine(cfg smt.BranchConfig) *hybridEngine {
	e := &hybridEngine{
		bimodal: make([]uint8, cfg.PHTEntries),
		gshare:  make([]uint8, cfg.PHTEntries),
		choose:  make([]uint8, cfg.PHTEntries),
		mask:    uint64(cfg.PHTEntries - 1),
	}
	for i := range e.bimodal {
		e.bimodal[i] = 1 // weakly not-taken
		e.gshare[i] = 1
		e.choose[i] = 2 // weakly trust gshare
	}
	return e
}

func (e *hybridEngine) idxBimodal(pc int64) uint64 { return (uint64(pc) >> 2) & e.mask }
func (e *hybridEngine) idxGshare(history uint32, pc int64) uint64 {
	return ((uint64(pc) >> 2) ^ uint64(history)) & e.mask
}

func (e *hybridEngine) Predict(history uint32, pc int64) (taken, confident bool) {
	b := e.bimodal[e.idxBimodal(pc)] >= 2
	g := e.gshare[e.idxGshare(history, pc)] >= 2
	if e.choose[e.idxBimodal(pc)] >= 2 {
		taken = g
	} else {
		taken = b
	}
	return taken, b == g // confidence = component agreement
}

func (e *hybridEngine) Update(history uint32, pc int64, taken bool) {
	bi, gi, ci := e.idxBimodal(pc), e.idxGshare(history, pc), e.idxBimodal(pc)
	bRight := (e.bimodal[bi] >= 2) == taken
	gRight := (e.gshare[gi] >= 2) == taken
	// Train the chooser only when the components disagree.
	if gRight && !bRight && e.choose[ci] < 3 {
		e.choose[ci]++
	} else if bRight && !gRight && e.choose[ci] > 0 {
		e.choose[ci]--
	}
	e.bimodal[bi] = bump(e.bimodal[bi], taken)
	e.gshare[gi] = bump(e.gshare[gi], taken)
}

func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

func main() {
	// 1. Register the hybrid. The engine goes in the standard frame
	// (thread-tagged BTB, per-thread history and return stacks), so only
	// the direction scheme is custom.
	err := smt.RegisterPredictor("hybrid", func(cfg smt.BranchConfig) (smt.DirEngine, error) {
		return newHybridEngine(cfg), nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Sweep it against gshare and the skewed predictor through the
	// experiment engine: same rotations, same seeds, so the IPC deltas
	// isolate the predictor change.
	e, err := exp.PredictorComparison([]string{"gshare", "gskewed", "hybrid"}, "ICOUNT", "", 8, 2, 8)
	if err != nil {
		log.Fatal(err)
	}
	res, err := exp.Runner{}.RunExperiment(context.Background(),
		e, exp.Opts{Runs: 2, Warmup: 20_000, Measure: 40_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("branch predictor comparison (ICOUNT.2.8, IPC by threads)")
	for _, s := range res.Series {
		fmt.Printf("%-10s", s.Name)
		for _, p := range s.Points {
			fmt.Printf("  T=%d: %.2f", p.Threads, p.IPC)
		}
		fmt.Println()
	}

	// 3. The same machine with the confidence-throttled variable fetch
	// rate: threads speculating past low-confidence (split-vote) branches
	// temporarily fetch fewer instructions.
	for _, vfr := range []bool{false, true} {
		cfg := smt.DefaultConfig(8)
		cfg.FetchPolicy = smt.FetchICount
		cfg.FetchThreads = 2
		cfg.Branch.Predictor = "hybrid"
		cfg.VarFetchRate = vfr
		sim := smt.MustNew(cfg, smt.WorkloadMix(8, 0, 1))
		r := sim.Run(400_000)
		fmt.Printf("hybrid, VarFetchRate=%-5v  IPC %.2f  branch mispredict %.1f%%\n",
			vfr, r.IPC, r.BranchMispredict*100)
	}
}
