//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const specFile = "../BENCHMARK.json"

// TestSpecLimits pins BENCHMARK.json to the limits the benchmark driver
// enforces before it makes a single run.
func TestSpecLimits(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", sp.RunSeconds)
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setup *metricSpec
	for i, m := range sp.EndToEnd {
		if *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &sp.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better; have %+v", setup)
	}
	for _, m := range sp.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if len(m.Unit) == 0 || len(m.Unit) > 16 {
			t.Errorf("%s: unit %q must have 1..16 characters", m.Name, m.Unit)
		}
	}
}

// resultLine is the driver's contract for the last line of standard output.
type resultLine struct {
	Correct   *bool            `json:"correct"`
	Attempted *int64           `json:"attempted"`
	Failed    *int64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runSmoke runs one workload in the smoke configuration through the real
// command line and returns its parsed result line.
func runSmoke(t *testing.T, work, workload, trace string, extra ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-smoke", "-spec", specFile, "-work", work, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace}, extra...)
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var r resultLine
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || r.Metrics == nil {
		t.Fatalf("result line lacks a key: %s", lines[len(lines)-1])
	}
	if !*r.Correct || *r.Failed != 0 || *r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, *r.Correct, *r.Attempted, *r.Failed)
	}
	return r
}

// wantMetrics checks that got holds exactly the declared metrics, each
// once (a JSON object cannot repeat a key it decoded) and with its unit.
func wantMetrics(t *testing.T, what string, got map[string]value, declared []metricSpec) {
	t.Helper()
	if len(got) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(declared))
	}
	for _, d := range declared {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", what, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", what, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload untraced and traced at smoke size and
// checks the output contract: every declared metric, with its unit, no
// more and no fewer; end-to-end values never zero; the five fetch-slot
// fractions sum to one; and every per-layer metric measured by at least
// one workload (the rest of its readings being "not exercised": 0).
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	measured := map[string]bool{}
	for _, w := range sp.Workloads {
		if testing.Short() && w.Name != "core_matrix" {
			continue // the service workloads build and boot smtd processes
		}
		e2e := runSmoke(t, work, w.Name, "0")
		wantMetrics(t, w.Name+" end-to-end", e2e.Metrics, sp.EndToEnd)
		for name, v := range e2e.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v.Value)
			}
		}
		// Traced, through runWorkload: the result line cannot say which
		// per-layer metrics the workload measured and which it left at 0.
		// (TestCompareSelf covers the traced command line.)
		c := &config{spec: sp, dir: "..", seed: 3, trace: true, z: smokeSizes(), timeout: time.Minute, cleanups: &procs{work: work}}
		o := runWorkload(context.Background(), c, w.Name)
		if !o.Correct {
			t.Fatalf("%s traced: %s", w.Name, o.Error)
		}
		wantMetrics(t, w.Name+" per-layer", o.Metrics, sp.PerLayer)
		for _, name := range o.measured {
			measured[name] = true
		}
		if w.Name == "core_matrix" {
			var slots float64
			for _, n := range []string{"fetch_cycles_frac", "fetch_lost_back_pressure", "fetch_lost_no_thread", "fetch_lost_imiss", "fetch_lost_bank_conflict"} {
				slots += o.Metrics["core."+n].Value
			}
			if math.Abs(slots-1) > 1e-9 {
				t.Errorf("core.fetch_* fractions sum to %v, want 1", slots)
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, d := range sp.PerLayer {
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}

// TestCompareSelf checks that a result file compared with itself is all
// "same", and that a slower second file is "worse" and exits 1.
func TestCompareSelf(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "a.json")
	runSmoke(t, dir, "core_matrix", "0", "-out", file)
	runSmoke(t, dir, "core_matrix", "1", "-out", file)

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-spec", specFile, "-compare", file, file}, &stdout, &stderr); code != 0 {
		t.Fatalf("-compare of a file with itself exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	rows := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.Contains(line, "core_matrix") {
			rows++
			if !strings.Contains(line, " same ") {
				t.Errorf("self-compare row is not same: %s", line)
			}
		}
	}
	if rows != len(sp.EndToEnd) {
		t.Errorf("%d rows for core_matrix, want one per end-to-end metric (%d)\n%s", rows, len(sp.EndToEnd), stdout.String())
	}
	if !strings.Contains(stdout.String(), ": 0 differ") {
		t.Errorf("self-compare found differing exact values:\n%s", stdout.String())
	}

	orig, err := readRuns(file)
	if err != nil {
		t.Fatal(err)
	}
	slower, _ := readRuns(file)
	half := slower[0].Workloads[0].Metrics["sim_kcycles_per_s"]
	half.Value /= 2
	slower[0].Workloads[0].Metrics["sim_kcycles_per_s"] = half
	stdout.Reset()
	if code := compareRuns(sp, orig, slower, &stdout); code != 1 || !strings.Contains(stdout.String(), "worse") {
		t.Errorf("halved throughput: exit %d, want 1 with a worse row\n%s", code, stdout.String())
	}
}
