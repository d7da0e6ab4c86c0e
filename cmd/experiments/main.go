// Command experiments regenerates every table and figure of the paper's
// evaluation (Tullsen et al., ISCA 1996) through the parallel experiment
// engine in internal/exp. Each experiment prints the same rows or series
// the paper reports, or emits machine-readable JSON with -json.
//
// Usage:
//
//	experiments -list
//	experiments -experiment all
//	experiments -experiment fig3,table3 -runs 4 -measure 100000
//	experiments -experiment fig4 -parallel 8 -json > fig4.json
//	experiments -policies
//	experiments -fetch ICOUNT,ICOUNT+BRCOUNT -threads 8 -nfetch 2
//	experiments -predictors
//	experiments -predictor gshare,gskewed,smiths -threads 8
//	experiments -experiment all -snapshot-dir ~/.cache/smt-snapshots
//
// Output is bit-identical for every -parallel value: each simulation's seed
// derives from its rotation index, never from scheduling order — and all
// configurations within a grid share seeds per rotation, so IPC deltas
// between points isolate the machine change (the paper's paired
// methodology).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/snapshot"
	"repro/smt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so tests can drive the CLI.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "comma-separated experiments (see -list), or all")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker pool size")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		list       = fs.Bool("list", false, "list registered experiments and exit")
		runs       = fs.Int("runs", 4, "benchmark rotations per data point")
		warmup     = fs.Int64("warmup", 30000, "warmup instructions per thread")
		measure    = fs.Int64("measure", 60000, "measured instructions per thread")
		seed       = fs.Uint64("seed", 1, "workload seed")
		cacheSize  = fs.Int("cache", 1024, "max job results reused across experiments (0 disables)")
		snapDir    = fs.String("snapshot-dir", "", "durable warmup-checkpoint directory: grid points sharing (workloads, rotation, seed, warmup) restore warmed machine state instead of re-simulating warmup, across runs of this command")
		replay     = fs.Bool("replay", true, "pre-decode each workload rotation once and replay the shared trace in every configuration's fetch path")

		// Ad-hoc policy comparison: any registered fetch policies —
		// built-ins, composites, or custom registrations — head to head,
		// without a registry preset.
		fetchSweep = fs.String("fetch", "", "comma-separated registered fetch policies for an ad-hoc comparison (replaces -experiment; see -policies)")
		issueAlg   = fs.String("issue", "OLDEST_FIRST", "issue policy for the -fetch/-predictor comparison")
		threads    = fs.Int("threads", 8, "max hardware contexts for the -fetch/-predictor comparison")
		nFetch     = fs.Int("nfetch", 2, "threads fetched per cycle for the -fetch/-predictor comparison (num1)")
		wFetch     = fs.Int("wfetch", 8, "max instructions per thread per cycle for the -fetch/-predictor comparison (num2)")
		policies   = fs.Bool("policies", false, "list registered fetch and issue policies and exit")

		// Ad-hoc predictor comparison: any registered branch predictors —
		// built-ins, return-stack variants, or custom registrations — swept
		// head to head under one fetch scheme.
		predSweep  = fs.String("predictor", "", "comma-separated registered branch predictors for an ad-hoc comparison (replaces -experiment; see -predictors)")
		predFetch  = fs.String("predfetch", "ICOUNT", "fetch policy for the -predictor comparison")
		predictors = fs.Bool("predictors", false, "list registered branch predictors and exit")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Validate numeric flags up front with a clear message; the engine's
	// Opts.normalized would otherwise silently rewrite nonsense values.
	for _, check := range []struct {
		bad bool
		msg string
	}{
		{*parallel < 0, fmt.Sprintf("-parallel %d is negative; use 0 for GOMAXPROCS or a positive pool size", *parallel)},
		{*runs <= 0, fmt.Sprintf("-runs %d must be positive (rotations averaged per data point)", *runs)},
		{*warmup < 0, fmt.Sprintf("-warmup %d is negative; use 0 to skip warmup", *warmup)},
		{*measure <= 0, fmt.Sprintf("-measure %d must be positive (instructions measured per thread)", *measure)},
		{*cacheSize < 0, fmt.Sprintf("-cache %d is negative; use 0 to disable result reuse", *cacheSize)},
	} {
		if check.bad {
			fmt.Fprintln(stderr, check.msg)
			return 2
		}
	}

	// Profiling hooks: experiment sweeps are the natural profiling harness
	// for the simulator's hot loop, so the CLI exposes the standard pprof
	// pair directly (`experiments -experiment fig3 -cpuprofile cpu.out`).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Title)
		}
		return 0
	}
	if *policies {
		fmt.Fprintf(stdout, "fetch policies: %s\n", strings.Join(smt.FetchPolicies(), ", "))
		fmt.Fprintf(stdout, "issue policies: %s\n", strings.Join(smt.IssuePolicies(), ", "))
		return 0
	}
	if *predictors {
		fmt.Fprintf(stdout, "branch predictors: %s\n", strings.Join(smt.Predictors(), ", "))
		return 0
	}

	expSet := false
	var adhocOnly []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "experiment":
			expSet = true
		case "issue", "threads", "nfetch", "wfetch":
			adhocOnly = append(adhocOnly, "-"+f.Name)
		case "predfetch":
			if *predSweep == "" {
				adhocOnly = append(adhocOnly, "-"+f.Name)
			}
		}
	})
	if *fetchSweep != "" && *predSweep != "" {
		fmt.Fprintln(stderr, "-fetch and -predictor each run their own ad-hoc comparison; pass only one")
		return 2
	}
	if *fetchSweep == "" && *predSweep == "" && len(adhocOnly) > 0 {
		// Registry experiments fix their own policies and thread counts;
		// silently dropping these overrides would misattribute results.
		fmt.Fprintf(stderr, "%s only apply to the -fetch/-predictor ad-hoc comparisons\n", strings.Join(adhocOnly, ", "))
		return 2
	}

	o := exp.Opts{Runs: *runs, Warmup: *warmup, Measure: *measure, Seed: *seed}
	var warm exp.WarmEnv
	runner := exp.Runner{Workers: *parallel}
	if *cacheSize > 0 {
		// One content-addressed store across every selected experiment:
		// configurations shared between grids (baselines, repeated points)
		// simulate once. Determinism makes reuse invisible in the output.
		runner.Cache = cache.New[smt.Results](*cacheSize)
	}
	if *snapDir != "" {
		// Warmup checkpoints persist to disk (content-addressed, checksummed;
		// a corrupt file is a cold miss), so grid points across experiments
		// and across invocations of this command share warmed machine state.
		disk, err := cache.NewDisk[[]byte](*snapDir)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		warm.Snapshots = snapshot.NewStore(disk)
	}
	if *replay {
		warm.Traces = snapshot.NewTraceCache(0)
	}
	runner.Dispatch = warm

	// emit routes every result — registry or ad-hoc — through one output
	// contract: collected for the single JSON document, or printed as the
	// experiment lays it out.
	var jsonResults []*exp.ExperimentResult
	emit := func(e exp.Experiment, res *exp.ExperimentResult) {
		if *jsonOut {
			jsonResults = append(jsonResults, res)
			return
		}
		fmt.Fprintf(stdout, "==== %s — %s ====\n", res.Experiment, res.Title)
		e.Print(stdout, res)
		fmt.Fprintln(stdout)
	}
	finish := func() int {
		if *jsonOut {
			// One valid JSON document however many experiments were selected.
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(jsonResults); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 1
			}
		}
		return 0
	}

	if *fetchSweep != "" || *predSweep != "" {
		flagName, list := "-fetch", *fetchSweep
		if *predSweep != "" {
			flagName, list = "-predictor", *predSweep
		}
		if expSet {
			fmt.Fprintf(stderr, "%s runs an ad-hoc comparison and replaces -experiment; pass only one\n", flagName)
			return 2
		}
		var names []string
		for _, n := range strings.Split(list, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		var e exp.Experiment
		var err error
		if *predSweep != "" {
			e, err = exp.PredictorComparison(names, *predFetch, *issueAlg, *threads, *nFetch, *wFetch)
		} else {
			e, err = exp.PolicyComparison(names, *issueAlg, *threads, *nFetch, *wFetch)
		}
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 2
		}
		res, err := runner.RunExperiment(context.Background(), e, o)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		emit(e, res)
		return finish()
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*experiment, ",") {
		if name = strings.TrimSpace(name); name != "" { // tolerate trailing commas
			want[name] = true
		}
	}
	if len(want) == 0 {
		fmt.Fprintln(stderr, "no experiment selected (see -list)")
		return 2
	}
	all := want["all"]
	for name := range want {
		if name == "all" {
			continue
		}
		if _, ok := exp.Lookup(name); !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (see -list)\n", name)
			return 2
		}
	}

	for _, e := range exp.Experiments() {
		if !all && !want[e.Name] {
			continue
		}
		res, err := runner.RunExperiment(context.Background(), e, o)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		emit(e, res)
	}
	return finish()
}
