package exp

import (
	"sort"
	"testing"

	"repro/internal/fingerprint"
	"repro/smt"
)

// coreMatrixOpts are the frozen budgets behind the matrix hash file: the
// per-thread warmup and measured instructions of one run at seed 1.
func coreMatrixOpts() Opts {
	return Opts{Runs: 1, Warmup: 100_000, Measure: 400_000, Seed: 1}
}

// coreMatrixMachines are the six machines of the benchmark's core_matrix
// workload (bench/grid.go pins its own copy).
func coreMatrixMachines() map[string]smt.Config {
	optLast := ICount28(8)
	optLast.IssuePolicy = smt.IssueOptLast
	iqposn := ICount28(8)
	iqposn.FetchPolicy = smt.FetchIQPosn
	noneVFR := ICount28(8)
	noneVFR.Branch.Predictor = smt.PredNone
	noneVFR.VarFetchRate = true
	return map[string]smt.Config{
		"superscalar":         smt.Superscalar(),
		"rr18x8":              smt.DefaultConfig(8),
		"icount28x8":          ICount28(8),
		"icount28x8_optlast":  optLast,
		"iqposn28x8":          iqposn,
		"icount28x8_none_vfr": noneVFR,
	}
}

// TestCoreMatrixFingerprints pins the Results fingerprint of the six
// core_matrix machines, run long, to testdata/core_matrix.golden.json. The
// goldens and the policy-pair hashes run a few thousand instructions on
// four threads; a cycle-loop rewrite can pass all of them and still change
// an eight-thread machine a few hundred thousand instructions in (see the
// visit-order invariant at core's nextIssuable), and only the benchmark's
// own check would notice. This is that check as a test.
//
// Refresh after an intentional simulator change with:
//
//	go test ./internal/exp -run CoreMatrixFingerprints -update
func TestCoreMatrixFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20M instructions")
	}
	o := coreMatrixOpts()
	machines := coreMatrixMachines()
	type result struct {
		name, hash string
	}
	ch := make(chan result)
	for name, cfg := range machines {
		name, cfg := name, cfg
		go func() { ch <- result{name, fingerprint.Of(Simulate(cfg, 0, o.Seed, o, 0, nil))} }()
	}
	got := make(map[string]string, len(machines))
	for range machines {
		r := <-ch
		got[r.name] = r.hash
	}

	checkHashFile(t, "core_matrix.golden.json", got)
}

// BenchmarkStep is the cycle loop's A/B harness: one sub-benchmark per
// core_matrix machine, built, warmed and checkpointed once outside the
// timer; each iteration restores the checkpoint (untimed) and runs a fixed
// instruction budget, so every iteration is the same simulated work and
// ns/cycle compares across binaries. Judge a lever with
//
//	go test ./internal/exp -run '^$' -bench Step -count 10
//
// on the parent and the change, alternating (`go test -c` once each).
func BenchmarkStep(b *testing.B) {
	const warmup, budget = 100_000, 50_000 // instructions a thread
	machines := coreMatrixMachines()
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := machines[name]
		b.Run(name, func(b *testing.B) {
			spec := smt.WorkloadMix(cfg.Threads, 0, coreMatrixOpts().Seed)
			threads := int64(cfg.Threads)
			sim := smt.MustNew(cfg, spec)
			sim.Warmup(warmup * threads)
			warm, err := sim.SaveSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim = smt.MustNew(cfg, spec)
				if err := sim.RestoreSnapshot(warm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cycles += sim.Run(budget * threads).Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
	}
}
