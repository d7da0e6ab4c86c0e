//go:build ignore

// Command coreab times two builds of the cycle loop in one process: this
// tree's internal/core and another revision's, forked as package coreb by
// coreab.sh, which also builds and runs it. Each machine is built twice
// from the same traces (the config crosses by JSON), both are warmed, and
// then they step alternately in chunks of equal simulated work; a chunk's
// ratio is new time over old time. Between processes a shared host drifts
// by more than a few-per-cent lever moves a cycle, and within one the
// drift hits both sides of every pair alike, so the median ratio repeats
// within about 1 %.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coreb"
	"repro/internal/exp"
	"repro/internal/workload"
	"repro/smt"
)

// Every recorded ratio and the A/A floor were measured at these settings.
const (
	chunk  = 500     // cycles a timed chunk
	warmup = 100_000 // instructions a thread commits before timing
	seed   = 1       // workload seed
)

func machines() map[string]smt.Config {
	optLast := exp.ICount28(8)
	optLast.IssuePolicy = smt.IssueOptLast
	noneVFR := exp.ICount28(8)
	noneVFR.Branch.Predictor = smt.PredNone
	noneVFR.VarFetchRate = true
	return map[string]smt.Config{
		"superscalar":         smt.Superscalar(),
		"rr18x8":              smt.DefaultConfig(8),
		"icount28x8":          exp.ICount28(8),
		"brcount28x8":         exp.MustFetchScheme(8, "BRCOUNT", 2, 8),
		"misscount28x8":       exp.MustFetchScheme(8, "MISSCOUNT", 2, 8),
		"iqposn28x8":          exp.MustFetchScheme(8, "IQPOSN", 2, 8),
		"icount28x8_optlast":  optLast,
		"icount28x8_none_vfr": noneVFR,
	}
}

// stepper is what both builds' Processor offer the harness.
type stepper interface {
	Step()
	Committed() int64
}

func main() {
	list := flag.String("machines", "icount28x8,brcount28x8,iqposn28x8,rr18x8", "comma-separated machines: "+strings.Join(names(), ", "))
	chunks := flag.Int("chunks", 400, "timed chunks a machine")
	flag.Parse()
	all := machines()
	for _, name := range strings.Split(*list, ",") {
		cfg, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "coreab: unknown machine %q (have %s)\n", name, strings.Join(names(), ", "))
			os.Exit(2)
		}
		ratios, newNs := compare(cfg, *chunks)
		slices.Sort(ratios)
		q := func(f float64) float64 { return ratios[int(f*float64(len(ratios)-1))] }
		fmt.Printf("%-20s median new/old ×%.3f  (quartiles ×%.3f … ×%.3f; new %.0f ns/cycle; %d chunks of %d cycles)\n",
			name, q(0.5), q(0.25), q(0.75), newNs, len(ratios), chunk)
	}
}

func names() []string {
	var out []string
	for name := range machines() {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// compare warms one machine of each build on shared traces and returns the
// per-chunk time ratios new/old, alternating which side steps first, and
// the new side's mean time a cycle.
func compare(cfg smt.Config, chunks int) (ratios []float64, newNs float64) {
	spec := smt.WorkloadMix(cfg.Threads, 0, seed)
	// Enough records that neither side spills onto a live walker while
	// timed: no context commits more than one instruction a cycle at
	// 8 threads, and a lone context's surplus only slows both sides alike.
	records := warmup + int64(chunks*chunk)
	traces := make([]*workload.Trace, cfg.Threads)
	for i, name := range spec.Names {
		tr, err := smt.BuildTrace(name, seed, i, records)
		if err != nil {
			panic(err)
		}
		traces[i] = tr
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		panic(err)
	}
	var oldCfg coreb.Config
	if err := json.Unmarshal(blob, &oldCfg); err != nil {
		panic(err)
	}
	sides := [2]stepper{core.MustNew(cfg, traces), coreb.MustNew(oldCfg, traces)}
	for _, p := range sides {
		for p.Committed() < warmup*int64(cfg.Threads) {
			p.Step()
		}
	}
	var newTotal time.Duration
	for i := 0; i < chunks; i++ {
		var took [2]time.Duration
		for k := 0; k < 2; k++ {
			side := (i + k) % 2
			start := time.Now()
			for c := 0; c < chunk; c++ {
				sides[side].Step()
			}
			took[side] = time.Since(start)
		}
		ratios = append(ratios, float64(took[0])/float64(took[1]))
		newTotal += took[0]
	}
	return ratios, float64(newTotal.Nanoseconds()) / float64(chunks*chunk)
}
