//go:build linux

// Command bench is the repository's layered benchmark: one program that
// measures the cycle loop in-process (core_matrix) and the smtd sweep
// service over HTTP (svc_cold, svc_warm, svc_dist), checks that every
// output is right, and prints every metric BENCHMARK.json names with its
// unit. Run from the repository root:
//
//	go run ./bench --workload svc_cold --seed 1 --seconds 20 --trace 0
//	go run ./bench -seed 1 -out run.json              # all four workloads
//	go run ./bench -seed 1 -trace 1 -trace-out spans.json
//	go run ./bench -compare a.json b.json
//
// With --workload the last line of standard output is one JSON object:
// correct, attempted, failed, and the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
)

// env is one workload run: its sizes and seed, where metrics and spans
// go, and the processes and directories it owns.
type env struct {
	z     sizes
	seed  uint64
	dir   string // checkout root (where go build ./cmd/smtd runs)
	rec   *recorder
	root  int        // the workload's root span
	probe int        // parent span of the layer probe in progress
	rng   *rand.Rand // seeded from --seed: everything random about the load
	procs *procs
	ops   *ops
	e2e   *metricSet
	layer *metricSet
}

// window is the workload's measurement window.
func (e *env) window() time.Duration { return time.Duration(e.z.seconds * float64(time.Second)) }

var workloads = map[string]func(context.Context, *env) error{
	"core_matrix": runCoreMatrix,
	"svc_cold":    runSvcCold,
	"svc_warm":    runSvcWarm,
	"svc_dist":    runSvcDist,
}

// outcome is one workload's result: the driver's result line, plus what
// the result file and the human-readable table add.
type outcome struct {
	Workload  string             `json:"workload,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]value   `json:"metrics"`
	WallS     float64            `json:"wall_s,omitempty"`
	SelfS     map[string]float64 `json:"self_s,omitempty"` // traced: self time per span name
	Error     string             `json:"error,omitempty"`
	spans     []span
	measured  []string // traced: the per-layer metrics this workload set itself
}

// config is the parsed command line.
type config struct {
	spec     *spec
	dir      string // checkout root
	seed     uint64
	trace    bool
	z        sizes
	timeout  time.Duration
	cleanups *procs
}

// runWorkload runs one workload under its timeout and resolves its metrics
// against BENCHMARK.json. It always returns an outcome; a workload that
// fails, times out or emits an undeclared metric is reported incorrect.
func runWorkload(ctx context.Context, c *config, name string) outcome {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	e := &env{
		z: c.z, seed: c.seed, dir: c.dir, rng: rand.New(rand.NewSource(int64(c.seed))),
		procs: c.cleanups, ops: &ops{},
		e2e: newMetricSet(), layer: newMetricSet(),
	}
	if c.trace {
		e.rec = newRecorder()
	}
	// The grid's points go into every request in an order drawn from --seed.
	e.z.points = append([]exp.PointSpec(nil), c.z.points...)
	e.rng.Shuffle(len(e.z.points), func(i, j int) { e.z.points[i], e.z.points[j] = e.z.points[j], e.z.points[i] })
	t0 := time.Now()
	e.root = e.rec.begin(0, "", "workload."+name)
	err := workloads[name](ctx, e)
	if err == nil && c.trace {
		err = e.ops.check(e.layerProbes())
	}
	e.rec.end(e.root)
	wall := time.Since(t0).Seconds()
	e.procs.cleanup()

	out := outcome{Workload: name, WallS: wall, Attempted: e.ops.attempted.Load(), Failed: e.ops.failed.Load()}
	if err == nil && out.Failed > 0 {
		err = fmt.Errorf("%s", *e.ops.firstErr.Load())
	}
	if err == nil {
		if c.trace {
			out.spans = e.rec.snapshot()
			out.SelfS = selfByName(out.spans)
			e.layer.set("trace.overhead_frac", traceOverhead(out.spans, wall))
			for name := range e.layer.vals {
				out.measured = append(out.measured, name)
			}
			out.Metrics, err = e.layer.emit(c.spec.PerLayer, false)
		} else {
			out.Metrics, err = e.e2e.emit(c.spec.EndToEnd, true)
		}
	}
	if err != nil {
		out.Error = err.Error()
		out.Failed = max(out.Failed, 1)
		out.Metrics = map[string]value{}
	}
	out.Attempted = max(out.Attempted, 1)
	out.Correct = err == nil
	return out
}

// traceOverhead is the share of the run the harness spent tracing: the
// scrapes of /metrics and /v1/workers it timed as trace.* spans,
// plus the calibrated cost of recording every span. It is timed by the
// tracer itself because the wall-clock difference between two 20 s runs on
// this host is larger than the overhead it would be measuring.
func traceOverhead(spans []span, wall float64) float64 {
	var scrape float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "trace.") {
			scrape += float64(s.End-s.Start) / 1e9
		}
	}
	const calib = 20000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < calib; i++ {
		r.end(r.begin(0, "", "trace.calibrate"))
	}
	perSpan := time.Since(t0).Seconds() / calib
	return (scrape + perSpan*float64(len(spans))) / wall
}

// runMeta records where and how a result file was produced.
type runMeta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
	Date       string  `json:"date"`
}

// run is one invocation's record; a result file holds a list of them, so
// repeated -out runs accumulate into the samples -compare takes medians of.
type run struct {
	Meta      runMeta   `json:"meta"`
	Workloads []outcome `json:"workloads"`
}

func commitOf(dir string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = dir
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: core_matrix, svc_cold, svc_warm, svc_dist, or all")
		seed     = fs.Uint64("seed", 1, "workload seed: exp.Opts.Seed of every sweep and the sampling seed of every check")
		secs     = fs.Float64("seconds", 0, "measurement window per workload (0 = run_seconds from BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 records spans and emits the per-layer metrics; 0 emits the end-to-end metrics")
		out      = fs.String("out", "", "append this run to a result file")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		smoke    = fs.Bool("smoke", false, "seconds-long configuration for tests: 8-job grid, tiny budgets")
		specPath = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json; its directory is the checkout root")
		work     = fs.String("work", "", "directory for the built smtd and temp dirs (default <root>/.bench_build)")
		screen   = fs.Int("screen", 0, "print the workload seeds in 1..n on which the simulator does not livelock (regenerates the list in screen.go)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *screen > 0 {
		if err := screenSeeds(context.Background(), *screen, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *workload != "all" && !sp.workload(*workload) || *trace != 0 && *trace != 1 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q, -trace %d or stray arguments %v\n", *workload, *trace, fs.Args())
		return 2
	}
	root, err := filepath.Abs(filepath.Dir(*specPath))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *work == "" {
		*work = filepath.Join(root, ".bench_build")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	c := &config{
		spec: sp, dir: root, seed: *seed, trace: *trace == 1,
		timeout:  150 * time.Second,
		cleanups: &procs{work: *work},
	}
	if *smoke {
		c.z = smokeSizes()
	} else {
		if *secs <= 0 {
			*secs = float64(sp.RunSeconds)
		}
		c.z = fullSizes(*secs)
	}

	// Children die with the harness: on a signal, kill their process groups
	// and remove the temp dirs, give the workload a moment to notice its
	// context ended, and exit even if it is stuck inside the simulator.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
		case <-ctx.Done():
			c.cleanups.cleanup()
			select {
			case <-done:
			case <-time.After(3 * time.Second):
				os.Exit(1)
			}
		}
	}()
	defer c.cleanups.cleanup()

	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	rec := run{Meta: runMeta{
		Commit: commitOf(root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: c.z.seconds,
		Trace: c.trace, Smoke: *smoke, Date: time.Now().UTC().Format(time.RFC3339),
	}}
	spans := map[string][]span{}
	code := 0
	for _, name := range names {
		o := runWorkload(ctx, c, name)
		rec.Workloads = append(rec.Workloads, o)
		spans[name] = o.spans
		if !o.Correct {
			fmt.Fprintf(stderr, "bench: %s failed: %s\n", name, o.Error)
			code = 1
		}
		if *workload == "all" {
			printTable(stdout, sp, o)
		}
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	if *traceOut != "" && c.trace {
		if err := writeSpans(*traceOut, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	if *workload != "all" {
		o := rec.Workloads[0]
		line, _ := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{o.Correct, o.Attempted, o.Failed, o.Metrics})
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

// clockOf labels a metric by what its number is made of: host time, the
// simulated machine (exact for a seed), or a count.
func clockOf(unit string) string {
	switch {
	case strings.HasPrefix(unit, "sim_"):
		return "simulated"
	case unit == "count" || unit == "bytes":
		return "count"
	}
	return "host"
}

// printTable prints one workload's metrics by name with unit and clock.
func printTable(w io.Writer, sp *spec, o outcome) {
	fmt.Fprintf(w, "== %s  correct=%v attempted=%d failed=%d wall=%.1fs\n", o.Workload, o.Correct, o.Attempted, o.Failed, o.WallS)
	decl := sp.EndToEnd
	if len(o.SelfS) > 0 {
		decl = sp.PerLayer
	}
	for _, d := range decl {
		if v, ok := o.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %-10s %s\n", d.Name, v.Value, v.Unit, clockOf(v.Unit))
		}
	}
	if len(o.SelfS) > 0 {
		names := make([]string, 0, len(o.SelfS))
		for n := range o.SelfS {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return o.SelfS[names[i]] > o.SelfS[names[j]] })
		fmt.Fprintf(w, "-- self time by span (s), %s\n", o.Workload)
		for _, n := range names {
			fmt.Fprintf(w, "%-36s %16.3f\n", n, o.SelfS[n])
		}
	}
}

// appendRun adds rec to the result file at path, creating it if needed.
func appendRun(path string, rec run) error {
	runs, err := readRuns(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	raw, err := json.MarshalIndent(append(runs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRuns(path string) ([]run, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []run
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return runs, nil
}
