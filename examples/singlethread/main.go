// singlethread measures the cost of SMT support to a single thread — the
// paper's second design goal. The SMT pipeline adds two register-read/write
// stages (Figure 2), stretching the misprediction penalty from 6 to 7
// cycles; the paper reports a throughput cost under 2% for one thread.
// This example runs the same benchmark on both pipelines and, as a bonus,
// with perfect branch prediction to show where the longer pipeline hurts.
package main

import (
	"fmt"

	"repro/smt"
)

func run(cfg smt.Config, bench string, perfect bool) float64 {
	if perfect {
		cfg.Branch.Predictor = smt.PredPerfect
	}
	spec := smt.WorkloadSpec{Names: []string{bench}, Seed: 5}
	sim := smt.MustNew(cfg, spec)
	sim.Warmup(100_000)
	return sim.Run(400_000).IPC
}

func main() {
	fmt.Printf("%-10s %12s %12s %8s %22s\n",
		"benchmark", "superscalar", "SMT pipe", "cost", "cost w/ perfect bpred")
	var totSS, totSMT float64
	for _, bench := range smt.Benchmarks() {
		ss := run(smt.Superscalar(), bench, false)
		smtPipe := run(smt.DefaultConfig(1), bench, false)
		ssP := run(smt.Superscalar(), bench, true)
		smtP := run(smt.DefaultConfig(1), bench, true)
		totSS += ss
		totSMT += smtPipe
		fmt.Printf("%-10s %12.2f %12.2f %7.1f%% %21.1f%%\n",
			bench, ss, smtPipe, (1-smtPipe/ss)*100, (1-smtP/ssP)*100)
	}
	n := float64(len(smt.Benchmarks()))
	fmt.Printf("\naverage: superscalar %.2f IPC, SMT pipeline %.2f IPC (cost %.1f%%)\n",
		totSS/n, totSMT/n, (1-totSMT/totSS)*100)
	fmt.Println("the paper reports the single-thread cost of SMT support below 2%")
}
