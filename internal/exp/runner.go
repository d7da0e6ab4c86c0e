package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/smt"
)

// Job is one simulation of an experiment grid: point Point of the grid run
// at benchmark rotation Run. Jobs are independent, so the runner may execute
// them in any order on any worker; JobSeed ties the workload stream to the
// job's rotation rather than its schedule, which is what makes parallel
// output bit-identical to serial output.
type Job struct {
	Experiment string
	Point      int
	Run        int
	Spec       PointSpec

	// fp is Spec.Config.Fingerprint(), computed once per grid point by Jobs
	// and shared by the point's rotations; empty on a Job built by hand,
	// which fingerprints on demand. Jobs are values: Spec.Config must not
	// change once fp is set.
	fp string
}

// JobSeed derives the deterministic workload seed for a job. It depends
// only on the base seed and the rotation index — deliberately NOT on the
// experiment name or point index — so every configuration in a grid runs
// the exact same workload streams per rotation (the paper's paired
// methodology: IPC deltas between points isolate the machine change, not
// the workload draw). Schedule independence alone is what parallel
// determinism needs.
func JobSeed(base uint64, run int) uint64 {
	return base + uint64(run)
}

// Key returns the job's content address: everything that determines its
// smt.Results — the model version, the machine configuration's
// fingerprint, the rotation, the derived workload seed, and the
// measurement budgets. Experiment and point identity are deliberately
// excluded (they do not affect the simulation), so the same configuration
// appearing in two different grids shares one cache entry.
func (j Job) Key(o Opts) string {
	o = o.Normalized()
	fp := j.fp
	if fp == "" {
		fp = j.Spec.Config.Fingerprint()
	}
	return fmt.Sprintf("v%d:%s:r%d:s%d:w%d:m%d", smt.ModelVersion, fp, j.Run, JobSeed(o.Seed, j.Run), o.Warmup, o.Measure)
}

// SnapshotKeyPrefix marks warmup checkpoints in a keyspace shared with
// job results (smtd's /v1/cache/{key} endpoint routes on it).
const SnapshotKeyPrefix = "snap:"

// SnapshotKey derives the content address of one warmup checkpoint. The
// fingerprint is the FULL configuration fingerprint — warmed state depends
// on every configuration field — and smt.ModelVersion is baked in so a
// format or model change misses instead of failing restores.
func SnapshotKey(fingerprint string, rotation int, seed uint64, warmup int64) string {
	return fmt.Sprintf("%sv%d:%s:r%d:s%d:w%d", SnapshotKeyPrefix, smt.ModelVersion, fingerprint, rotation, seed, warmup)
}

// JobCache is the pluggable per-job result store the runner consults
// before simulating. Implementations must be safe for concurrent use.
// When the value also offers the waiter upgrade (cache.Flight does), the
// runner's lookups honor ctx and a job it cannot finish releases its
// leadership; see runJob.
type JobCache interface {
	Get(key string) (smt.Results, bool)
	Put(key string, r smt.Results)
}

// waiter is the one optional upgrade of a JobCache: a lookup that can
// abandon its wait on another runner's in-flight computation, and the
// release of a key the caller missed on and will never Put.
type waiter interface {
	GetCtx(ctx context.Context, key string) (smt.Results, bool, error)
	Forget(key string)
}

// Dispatcher executes one cache-missed job somewhere — possibly another
// process or machine — and returns its results. The contract is strict
// determinism: Dispatch must return exactly the smt.Results that Simulate
// would produce for the job in this process, so a distributed run stays
// byte-identical to a local one. The runner passes interval > 0 exactly
// when onSnap != nil: it asks the executor to forward interval snapshots
// to onSnap (implementations may ignore the request but must not change
// results). Dispatch is called concurrently from worker goroutines and
// must honor ctx cancellation.
type Dispatcher interface {
	Dispatch(ctx context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error)
}

// SnapshotStore is the pluggable warmup-checkpoint store the kernel (and
// the distributed worker) probes before warming a machine and fills after
// a cold warmup, under SnapshotKey. Implementations must be safe for
// concurrent use.
type SnapshotStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// TraceSource serves the pre-decoded trace set of a workload with at least
// perThread records per context, or fewer when it caps lengths (a replay
// that outlives its trace spills onto the live walker). Implementations
// must be safe for concurrent use.
type TraceSource interface {
	Get(spec smt.WorkloadSpec, perThread int64) (*smt.TraceSet, error)
}

// WarmEnv carries the optional sweep-acceleration layers into the
// measurement kernel, and is the in-process Dispatcher: a Runner, the
// coordinator's local route and a distributed worker all run the kernel
// under one. Both fields are seams this package declares; the embedder
// supplies the stores (internal/cache tiers, snapshot.Store,
// smt.TraceCache). The zero value disables both layers; either field
// works alone. Neither layer changes result bytes — restored and
// replayed runs are byte-identical to cold runs by construction.
type WarmEnv struct {
	// Snapshots checkpoints warmed machine state under
	// SnapshotKey(fingerprint, rotation, seed, warmup): a hit restores
	// the machine past its entire warmup, a miss warms cold and fills the
	// store for every later run sharing the key.
	Snapshots SnapshotStore
	// Traces serves each hardware context's pre-decoded program, replayed
	// in the fetch path of every configuration and machine width that
	// runs it.
	Traces TraceSource
}

// Dispatch implements Dispatcher: the job's measurement kernel in this
// process under env. It cannot fail and does not watch ctx — a started
// simulation runs its budget out.
func (env WarmEnv) Dispatch(_ context.Context, j Job, o Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
	o = o.Normalized()
	return SimulateEnv(j.Spec.Config, j.Run, JobSeed(o.Seed, j.Run), o, interval, onSnap, env), nil
}

// Simulate executes one job's measurement kernel in-process with no
// acceleration layers: SimulateEnv under the zero WarmEnv.
func Simulate(cfg smt.Config, rotation int, seed uint64, o Opts, interval int64, onSnap func(smt.Snapshot)) smt.Results {
	return SimulateEnv(cfg, rotation, seed, o, interval, onSnap, WarmEnv{})
}

// SimulateEnv is the measurement kernel: build the machine, warm it, and
// measure — as one streaming run session. It is the exact function every
// execution path funnels through — the parallel runner, the coordinator's
// local fallback, and distributed workers — which is what makes results
// content-addressable and byte-identical across all of them. Only cfg,
// rotation, seed, and the o.Warmup/o.Measure budgets affect the returned
// results. interval > 0 forwards per-interval snapshots to onSnap while
// the simulation advances; the streamed final results are byte-identical
// to a blocking run, so streaming is invisible to callers that only
// consume the return value.
//
// With env.Traces the machine replays its contexts' pre-decoded traces;
// with env.Snapshots the warmup phase is checkpointed: restore on a hit
// (zero warmup cycles simulated), warm-and-save on a miss. Splitting
// warmup and measurement into two sessions steps the identical cycle
// sequence as the combined session — the warmup loop and statistics reset
// happen at the same machine states — so every env commits the same bits.
func SimulateEnv(cfg smt.Config, rotate int, seed uint64, o Opts, interval int64, onSnap func(smt.Snapshot), env WarmEnv) smt.Results {
	spec := smt.WorkloadMix(cfg.Threads, rotate, seed)
	warmup := o.Warmup
	if warmup < 0 {
		warmup = 0 // a negative warmup skips warmup
	}

	build := func() *smt.Simulator {
		if env.Traces != nil {
			// Ask for each thread's expected share plus slack; the cache
			// rounds up and serves any trace at least this long.
			// Undersizing is safe — a replayed run that outlives its trace
			// spills onto a live walker bit-identically — so this is a
			// performance knob, not a correctness bound.
			records := warmup + o.Measure
			records += records>>3 + 1024
			if ts, err := env.Traces.Get(spec, records); err == nil {
				if sim, err := smt.NewReplay(cfg, ts); err == nil {
					return sim
				}
			}
		}
		// Walk live, on programs smt.New shares process-wide.
		return smt.MustNew(cfg, spec)
	}

	measure := func(sim *smt.Simulator, warm int64) smt.Results {
		sess, err := sim.Start(context.Background(), smt.RunSpec{
			Warmup:         warm,
			Instructions:   o.Measure * int64(cfg.Threads),
			IntervalCycles: interval,
		})
		if err != nil {
			panic(err) // unreachable: the simulator is freshly built and idle
		}
		for snap := range sess.Snapshots() {
			if onSnap != nil {
				onSnap(snap)
			}
		}
		res, _ := sess.Finish()
		return res
	}

	sim := build()
	if env.Snapshots == nil || warmup == 0 {
		return measure(sim, warmup*int64(cfg.Threads))
	}

	key := SnapshotKey(cfg.Fingerprint(), rotate, seed, warmup)
	if data, ok := env.Snapshots.Get(key); ok {
		if err := sim.RestoreSnapshot(data); err == nil {
			return measure(sim, 0)
		}
		// A snapshot that fails to restore (version skew, corruption the
		// storage tiers could not catch) leaves the machine undefined:
		// rebuild and run cold, exactly as if the probe had missed.
		sim = build()
	}
	sim.Warmup(warmup * int64(cfg.Threads))
	if data, err := sim.SaveSnapshot(); err == nil {
		// Unsaveable machines (custom predictors) just stay cold.
		env.Snapshots.Put(key, data)
	}
	return measure(sim, 0)
}

// Runner executes experiment grids across a bounded worker pool.
type Runner struct {
	// Workers is the pool size; <=0 means runtime.GOMAXPROCS(0).
	Workers int

	// Cache, when non-nil, is consulted per job before simulating and
	// updated after, under Job.Key. Because jobs are deterministic
	// functions of their content address, a cache hit returns exactly the
	// bytes a fresh simulation would, so cached and uncached runs stay
	// byte-identical. Any internal/cache store fits; a Flight also makes
	// lookups waiting on another runner's leader honor ctx (see runJob).
	Cache JobCache

	// OnJobDone, when non-nil, observes every job completion with its
	// results and whether they came from Cache. It is called from worker
	// goroutines, possibly concurrently and in any order; implementations
	// must synchronize their own state.
	OnJobDone func(j Job, r smt.Results, fromCache bool)

	// Interval, when positive and OnSnapshot is set, streams interval
	// snapshots from every simulated job: the job runs as a streaming
	// session emitting a smt.Snapshot every Interval cycles, each forwarded
	// to OnSnapshot.
	// Cache hits produce no snapshots (nothing simulates). Streaming never
	// changes results — a job's final streamed results are byte-identical
	// to its blocking results.
	Interval int64

	// OnSnapshot, when non-nil (and Interval is positive), observes every
	// interval snapshot of every simulating job. Like OnJobDone it is
	// called from worker goroutines; implementations must synchronize.
	OnSnapshot func(j Job, s smt.Snapshot)

	// Dispatch executes every cache-missed job. Nil means the zero WarmEnv:
	// the plain kernel in this process. A WarmEnv with checkpoints and
	// traces attached accelerates the same kernel (the CLI); the distributed
	// coordinator in internal/dist sends the job to a worker fleet (smtd).
	// The cache protocol is the same for all of them (lookup before
	// dispatch, fill after), so overlapping sweeps dedupe identically, and
	// because dispatchers are determinism-bound (see Dispatcher) the
	// aggregated result bytes do not depend on which one ran the job.
	// Bounding execution across sweeps is the dispatcher's job (smtd's
	// coordinator meters its local slots; a remote fleet has its own
	// capacity); under a WarmEnv, Workers is the only bound.
	Dispatch Dispatcher
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Jobs expands an experiment grid into its (point, rotation) job list in
// deterministic order: all rotations of point 0, then point 1, and so on.
// Each point's config is fingerprinted here, once, for every key its jobs
// derive.
func Jobs(e Experiment, o Opts) ([]Job, error) {
	o = o.Normalized()
	grid, err := e.Grid()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, len(grid)*o.Runs)
	for i, spec := range grid {
		fp := spec.Config.Fingerprint()
		for run := 0; run < o.Runs; run++ {
			jobs = append(jobs, Job{Experiment: e.Name, Point: i, Run: run, Spec: spec, fp: fp})
		}
	}
	return jobs, nil
}

// RunExperiment executes every job of the experiment across the worker pool
// and aggregates rotations into points. Results are identical for any
// worker count and any cache state: each job's seed depends only on its
// identity, and aggregation walks jobs in index order, so float summation
// order is fixed.
//
// Cancelling ctx stops the run between jobs (an in-flight simulation
// finishes its budget first, while jobs still waiting on the shared
// semaphore abandon the wait immediately) and returns ctx's error. A job
// that fails — only possible through a Dispatch error — cancels the rest
// of the run and surfaces the first such error.
func (r Runner) RunExperiment(ctx context.Context, e Experiment, o Opts) (*ExperimentResult, error) {
	jobs, err := Jobs(e, o)
	if err != nil {
		return nil, err
	}
	return r.RunJobs(ctx, e, o, jobs)
}

// RunJobs is RunExperiment for a caller that already holds the expansion:
// jobs must be what Jobs(e, o) returned. smtd expands a request body once
// to validate and size it, and runs that same list for every sweep of the
// body: RunJobs only reads jobs, so concurrent runs may share one slice.
func (r Runner) RunJobs(ctx context.Context, e Experiment, o Opts, jobs []Job) (*ExperimentResult, error) {
	o = o.Normalized()
	results := make([]smt.Results, len(jobs))

	// runCtx lets the first failing job stop its siblings without waiting
	// for them to run their full budgets.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var (
		errOnce sync.Once
		jobErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			jobErr = err
			cancelRun()
		})
	}

	workers := r.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if runCtx.Err() != nil {
					continue // drain without working; the feeder is stopping
				}
				res, err := r.runJob(runCtx, jobs[i], o)
				if err != nil {
					fail(err)
					continue
				}
				results[i] = res
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err // the caller's cancellation wins over derived job errors
	}
	if jobErr != nil {
		return nil, jobErr
	}

	return aggregate(e, o, jobs, results)
}

// runJob executes one job, consulting and feeding the cache, and reports
// completion through OnJobDone. The cache lookup happens first, so a hit —
// or a wait on another runner's in-flight computation — never reaches the
// dispatcher. A cache offering the waiter upgrade is asked through it:
// the wait honors ctx, and on a dispatch error the job's leadership is
// released before the error is returned. A wrapper that implements only
// Get/Put hides the upgrade and gets plain Get.
func (r Runner) runJob(ctx context.Context, j Job, o Opts) (smt.Results, error) {
	var key string
	w, _ := r.Cache.(waiter)
	if r.Cache != nil {
		key = j.Key(o)
		var (
			res smt.Results
			ok  bool
			err error
		)
		if w != nil {
			res, ok, err = w.GetCtx(ctx, key)
		} else {
			res, ok = r.Cache.Get(key)
		}
		if err != nil {
			return smt.Results{}, err // wait abandoned; no leadership taken
		}
		if ok {
			if r.OnJobDone != nil {
				r.OnJobDone(j, res, true)
			}
			return res, nil
		}
	}
	// Snapshots are built only for an observer: without one, a job would
	// pay for a Snapshot every interval (and a remote one for a POST each)
	// that nobody reads.
	var interval int64
	var onSnap func(smt.Snapshot)
	if r.Interval > 0 && r.OnSnapshot != nil {
		interval = r.Interval
		onSnap = func(s smt.Snapshot) { r.OnSnapshot(j, s) }
	}

	d := r.Dispatch
	if d == nil {
		d = WarmEnv{}
	}
	res, err := d.Dispatch(ctx, j, o, interval, onSnap)
	if err != nil {
		if w != nil {
			w.Forget(key)
		}
		return smt.Results{}, err
	}
	if r.Cache != nil {
		r.Cache.Put(key, res)
	}
	if r.OnJobDone != nil {
		r.OnJobDone(j, res, false)
	}
	return res, nil
}

// aggregate folds per-job results into per-point averages and groups points
// into series in first-appearance order.
func aggregate(e Experiment, o Opts, jobs []Job, results []smt.Results) (*ExperimentResult, error) {
	out := &ExperimentResult{
		SchemaVersion: SchemaVersion,
		Experiment:    e.Name,
		Title:         e.Title,
		Opts:          o,
	}
	seriesIdx := map[string]int{}
	var cur *Point
	for i, j := range jobs {
		if j.Run == 0 {
			si, ok := seriesIdx[j.Spec.Series]
			if !ok {
				si = len(out.Series)
				seriesIdx[j.Spec.Series] = si
				out.Series = append(out.Series, SeriesResult{Name: j.Spec.Series})
			}
			out.Series[si].Points = append(out.Series[si].Points, Point{
				Label:   j.Spec.Label,
				Threads: j.Spec.Threads,
			})
			cur = &out.Series[si].Points[len(out.Series[si].Points)-1]
		}
		if cur == nil {
			return nil, fmt.Errorf("exp: job %d of %s has no point", i, e.Name)
		}
		cur.IPC += results[i].IPC
		cur.Results = results[i] // counters come from the last rotation
		if j.Run == o.Runs-1 {
			cur.IPC /= float64(o.Runs)
		}
	}
	return out, nil
}

// Run executes the named registry experiment on a plain Runner: no cache,
// no dispatch, no acceleration layers.
func Run(name string, o Opts, workers int) (*ExperimentResult, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	return Runner{Workers: workers}.RunExperiment(context.Background(), e, o)
}
