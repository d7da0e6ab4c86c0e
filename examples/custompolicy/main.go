// custompolicy registers a hybrid fetch policy from outside the simulator
// internals and races it against the paper's ICOUNT — the "exploiting
// choice" extension point in action. The hybrid orders threads by
// instruction count like ICOUNT, but charges each unresolved branch one
// extra instruction: a thread deep in speculation is likely filling the
// queues with wrong-path work, so it fetches later.
//
// Once registered, the policy's name works everywhere a built-in's does:
// assigned to Config.FetchPolicy, swept by the experiment engine (with
// results content-addressed by the name), passed to CLI flags, or posted
// to smtd in an inline grid. This program shows the first two, plus the
// streaming run-session API watching a single run converge interval by
// interval.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/smt"
)

func main() {
	// 1. Register the hybrid. The comparison sees the same per-thread
	// feedback the built-ins use; ties break round-robin automatically.
	err := smt.RegisterFetchPolicy(smt.FetchPolicy{Name: "ICOUNT+BRPENALTY",
		Less: func(a, b smt.ThreadFeedback) bool {
			return a.ICount+a.BrCount < b.ICount+b.BrCount
		}})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Sweep it against ICOUNT through the experiment engine: same
	// rotations, same seeds, so the IPC deltas isolate the policy change.
	e, err := exp.PolicyComparison([]string{"ICOUNT", "ICOUNT+BRPENALTY"}, "", 8, 2, 8)
	if err != nil {
		log.Fatal(err)
	}
	res, err := exp.Runner{}.RunExperiment(context.Background(),
		e, exp.Opts{Runs: 2, Warmup: 20_000, Measure: 40_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fetch policy comparison (2.8 partitioning, IPC by threads)")
	for _, s := range res.Series {
		fmt.Printf("%-22s", s.Name)
		for _, p := range s.Points {
			fmt.Printf("  T=%d: %.2f", p.Threads, p.IPC)
		}
		fmt.Println()
	}

	// 3. Watch one 8-thread run converge with the streaming session API.
	cfg := smt.DefaultConfig(8)
	cfg.FetchPolicy = "ICOUNT+BRPENALTY"
	cfg.FetchThreads = 2
	sim := smt.MustNew(cfg, smt.WorkloadMix(8, 0, 1))
	sess, err := sim.Start(context.Background(), smt.RunSpec{
		Warmup:         160_000,
		Instructions:   400_000,
		IntervalCycles: 20_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstreaming one ICOUNT+BRPENALTY.2.8 run (cumulative vs interval IPC):")
	for snap := range sess.Snapshots() {
		fmt.Printf("  cycle %7d  cumulative %.2f  interval %.2f\n",
			snap.Cycles, snap.Cumulative.IPC, snap.Delta.IPC)
	}
	final, err := sess.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: %.2f IPC over %d cycles\n", final.IPC, final.Cycles)
}
