//go:build linux

package main

import (
	"fmt"
	"io"
	"strings"
)

// compareFiles prints one row per (end-to-end metric, workload) with both
// files' medians, their ratio, the bound from BENCHMARK.json and a
// verdict, then one line per simulated or exactly-repeating per-layer
// value that differs between traced runs of the same seed. It returns 1
// when any row is worse.
//
// Verdicts follow the rule the repository's guides fix. A file holds one
// or more runs; the spread of a side is the distance between its
// quartiles over its median. Where neither spread exceeds the bound, the
// medians decide: worse or better beyond the bound, otherwise same. Where
// a spread exceeds the bound, the metric is unresolved unless every run
// of b reads better (or, beyond the bound, worse) than every run of a.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err == nil {
		var b []run
		if b, err = readRuns(pathB); err == nil {
			return compareRuns(sp, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// samples gathers metric -> workload -> values over the runs of one file
// with the given tracing mode, correct workloads only.
func samples(runs []run, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Meta.Trace != traced {
			continue
		}
		for _, w := range r.Workloads {
			if !w.Correct {
				continue
			}
			for name, v := range w.Metrics {
				if out[name] == nil {
					out[name] = map[string][]float64{}
				}
				out[name][w.Workload] = append(out[name][w.Workload], v.Value)
			}
		}
	}
	return out
}

func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}

// verdict compares b against a for one metric on one workload.
func verdict(a, b []float64, m metricSpec) (worseBy float64, v string) {
	sign := 1.0 // positive worseBy = b is worse
	if m.Better == "higher" {
		sign = -1
	}
	worseBy = sign * (median(b) - median(a)) / median(a)
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	bound := *m.Bound
	switch noisy := max(spread(a), spread(b)) > bound; {
	case noisy && allBetter:
		return worseBy, "better"
	case noisy && allWorse && worseBy > bound:
		return worseBy, "worse"
	case noisy:
		return worseBy, "unresolved"
	case worseBy > bound:
		return worseBy, "worse"
	case worseBy < -bound:
		return worseBy, "better"
	}
	return worseBy, "same"
}

// exact reports whether a per-layer metric repeats bit for bit between two
// runs of one seed on one workload: everything simulated, sizes fixed by
// the inputs, and the cache and checkpoint counters — except on svc_dist,
// where how many jobs spill onto the coordinator depends on timing.
func exact(m metricSpec, workload string) bool {
	if strings.HasPrefix(m.Unit, "sim_") || m.Unit == "bytes" {
		return workload != "svc_dist" || !strings.HasPrefix(m.Name, "snapshot.bytes_")
	}
	switch m.Name {
	case "cache.mem_hits", "cache.mem_misses", "cache.disk_hits", "cache.disk_misses",
		"snapshot.hits", "snapshot.misses", "snapshot.puts":
		return workload != "svc_dist"
	}
	return false
}

func compareRuns(sp *spec, a, b []run, w io.Writer) int {
	code := 0
	sa, sb := samples(a, false), samples(b, false)
	fmt.Fprintf(w, "%-22s %-12s %14s %14s %9s %7s  %s\n", "metric", "workload", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, m := range sp.EndToEnd {
		for _, wl := range sp.Workloads {
			xa, xb := sa[m.Name][wl.Name], sb[m.Name][wl.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, v := verdict(xa, xb, m)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-22s %-12s %14.6g %14.6g %9.4f %7.2f  %s (n=%d,%d; %s is better)\n",
				m.Name, wl.Name, median(xa), median(xb), ratio(median(xb), median(xa)), *m.Bound, v, len(xa), len(xb), m.Better)
		}
	}

	// Exact values only compare between traced runs of one seed.
	if len(a) == 0 || len(b) == 0 || a[0].Meta.Seed != b[0].Meta.Seed {
		return code
	}
	ta, tb := samples(a, true), samples(b, true)
	differ := 0
	for _, m := range sp.PerLayer {
		for _, wl := range sp.Workloads {
			xa, xb := ta[m.Name][wl.Name], tb[m.Name][wl.Name]
			if len(xa) == 0 || len(xb) == 0 || !exact(m, wl.Name) {
				continue
			}
			if xa[0] != xb[0] {
				differ++
				fmt.Fprintf(w, "exact %-30s %-12s %v != %v\n", m.Name, wl.Name, xa[0], xb[0])
			}
		}
	}
	if len(ta) > 0 && len(tb) > 0 {
		fmt.Fprintf(w, "exact per-layer values (simulated, sizes, scheduling-independent counts): %d differ\n", differ)
	}
	return code
}
