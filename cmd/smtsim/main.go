// Command smtsim runs a single machine configuration and prints its
// statistics — the quickest way to explore the design space by hand.
//
// Examples:
//
//	smtsim -threads 8 -fetch ICOUNT -nfetch 2 -wfetch 8
//	smtsim -threads 1 -superscalar
//	smtsim -threads 8 -fetch RR -issue OPT_LAST -bigq -itag
//
// Exit status: 0 after printing the statistics, 2 for a bad flag, 1 for a
// machine or workload the simulator rejects and for a run that stalls —
// stallWindow cycles without a single commit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/policy"
	"repro/smt"
)

// stallWindow is how many cycles may pass without a commit before a run
// counts as stalled. The longest legitimate gap is a TLB miss plus a memory
// round trip, a few hundred cycles.
const stallWindow = 100_000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runPhase commits at least `instructions` more instructions, like
// Simulator.Run, but as a streaming session it abandons once a whole
// stallWindow goes by with nothing committed.
func runPhase(sim *smt.Simulator, phase string, instructions int64) (smt.Results, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	se, err := sim.Start(ctx, smt.RunSpec{Instructions: instructions, IntervalCycles: stallWindow})
	if err != nil {
		return smt.Results{}, err
	}
	for snap := range se.Snapshots() {
		if !snap.Done && snap.Delta.Committed == 0 {
			cancel()
			se.Finish()
			at := snap.Cumulative
			return at, fmt.Errorf("stalled in %s: nothing committed in the %d cycles before cycle %d (committed %d of %d, per thread %v)",
				phase, stallWindow, at.Cycles, at.Committed, instructions, at.CommittedByThread)
		}
	}
	return se.Finish()
}

// run is main with its dependencies injected, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads     = fs.Int("threads", 8, "hardware contexts (1-64; the benchmark mix repeats past 8)")
		fetchAlg    = fs.String("fetch", "RR", "fetch policy: any registered name (RR, BRCOUNT, MISSCOUNT, ICOUNT, IQPOSN, ICOUNT+BRCOUNT, ...)")
		nFetch      = fs.Int("nfetch", 1, "threads fetched per cycle (num1)")
		wFetch      = fs.Int("wfetch", 8, "max instructions per thread per cycle (num2)")
		issueAlg    = fs.String("issue", "OLDEST_FIRST", "issue policy: any registered name (OLDEST_FIRST, OPT_LAST, SPEC_LAST, BRANCH_FIRST, ...)")
		bigq        = fs.Bool("bigq", false, "double-size buffered instruction queues")
		itag        = fs.Bool("itag", false, "early I-cache tag lookup")
		superscalar = fs.Bool("superscalar", false, "unmodified superscalar baseline (forces 1 thread)")
		perfectBP   = fs.Bool("perfectbp", false, "perfect branch prediction")
		excess      = fs.Int("excess", 100, "renaming registers beyond threads*32, per file")
		warmup      = fs.Int64("warmup", 30000, "warmup instructions per thread")
		measure     = fs.Int64("measure", 100000, "measured instructions per thread")
		seed        = fs.Uint64("seed", 1, "workload seed")
		rotate      = fs.Int("rotate", 0, "benchmark rotation (which mix of the 8 benchmarks)")
		bench       = fs.String("bench", "", "comma-separated benchmark names, one per context (overrides -rotate)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Validate the budgets and the rotation up front, as cmd/experiments
	// does; a negative one is a typo, not a machine to simulate.
	for _, check := range []struct {
		bad bool
		msg string
	}{
		{*warmup < 0, fmt.Sprintf("-warmup %d is negative; use 0 to skip warmup", *warmup)},
		{*measure < 0, fmt.Sprintf("-measure %d is negative (instructions measured per thread)", *measure)},
		{*rotate < 0, fmt.Sprintf("-rotate %d is negative; rotations count up from 0", *rotate)},
	} {
		if check.bad {
			fmt.Fprintln(stderr, check.msg)
			return 2
		}
	}

	fatal := func(err error) int {
		fmt.Fprintln(stderr, "smtsim:", err)
		return 1
	}
	var cfg smt.Config
	if *superscalar {
		cfg = smt.Superscalar()
	} else {
		cfg = smt.DefaultConfig(*threads)
	}
	fa, err := policy.ParseFetchAlg(*fetchAlg)
	if err != nil {
		return fatal(err)
	}
	cfg.FetchPolicy = fa
	ia, err := policy.ParseIssueAlg(*issueAlg)
	if err != nil {
		return fatal(err)
	}
	cfg.IssuePolicy = ia
	cfg.FetchThreads = min(*nFetch, cfg.Threads)
	cfg.FetchPerThread = *wFetch
	cfg.BigQ = *bigq
	cfg.ITAG = *itag
	if *perfectBP {
		cfg.Branch.Predictor = smt.PredPerfect
	}
	cfg.Rename.ExcessRegs = *excess

	spec := smt.WorkloadMix(cfg.Threads, *rotate, *seed)
	if *bench != "" {
		// Parsed as cmd/experiments parses its lists: names are trimmed and
		// empty ones (a trailing comma) skipped.
		spec.Names = nil
		for _, n := range strings.Split(*bench, ",") {
			if n = strings.TrimSpace(n); n != "" {
				spec.Names = append(spec.Names, n)
			}
		}
	}
	sim, err := smt.New(cfg, spec)
	if err != nil {
		return fatal(err)
	}

	fmt.Fprintf(stdout, "machine: %s  threads=%d  issue=%s  workload=%v\n",
		cfg.FetchName(), cfg.Threads, cfg.IssuePolicy, spec.Names)
	// Warmup is a measured phase whose counters are then dropped: the same
	// cycles Simulator.Warmup steps, under the stall guard.
	if _, err := runPhase(sim, "warmup", *warmup*int64(cfg.Threads)); err != nil {
		return fatal(err)
	}
	sim.Warmup(0)
	res, err := runPhase(sim, "measurement", *measure*int64(cfg.Threads))
	if err != nil {
		return fatal(err)
	}

	fmt.Fprintf(stdout, "\ncycles:             %d\n", res.Cycles)
	fmt.Fprintf(stdout, "committed:          %d\n", res.Committed)
	fmt.Fprintf(stdout, "throughput:         %.2f IPC\n", res.IPC)
	fmt.Fprintf(stdout, "per-thread commits: %v\n", res.CommittedByThread)
	fmt.Fprintf(stdout, "\nbranch mispredict:  %.1f%%\n", res.BranchMispredict*100)
	fmt.Fprintf(stdout, "jump mispredict:    %.1f%%\n", res.JumpMispredict*100)
	fmt.Fprintf(stdout, "wrong-path fetched: %.1f%%\n", res.WrongPathFetched*100)
	fmt.Fprintf(stdout, "wrong-path issued:  %.1f%%\n", res.WrongPathIssued*100)
	fmt.Fprintf(stdout, "optimistic squash:  %.1f%%\n", res.OptimisticSquash*100)
	fmt.Fprintf(stdout, "\nint IQ-full:        %.1f%% of cycles\n", res.IntIQFull*100)
	fmt.Fprintf(stdout, "fp IQ-full:         %.1f%% of cycles\n", res.FPIQFull*100)
	fmt.Fprintf(stdout, "out-of-registers:   %.1f%% of cycles\n", res.OutOfRegisters*100)
	fmt.Fprintf(stdout, "avg queue pop:      %.1f\n", res.AvgQueuePop)
	fmt.Fprintln(stdout)
	for i, name := range smt.CacheNames {
		c := res.Caches[i]
		fmt.Fprintf(stdout, "%-7s miss rate:  %5.1f%%   (%.0f misses per 1000 instructions)\n",
			name, c.MissRate*100, c.PerK)
	}
	return 0
}
