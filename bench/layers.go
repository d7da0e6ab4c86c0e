//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/snapshot"
	"repro/internal/workload"
	"repro/smt"
)

// medianOf times fn reps times inside spans and returns the median
// duration. prep, when non-nil, runs untimed before each repetition.
func (e *env) medianOf(name string, reps int, prep, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		ds[i] = e.rec.timed(e.probe, "", name, fn)
	}
	return time.Duration(median(seconds(ds)) * float64(time.Second))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// layerProbes times the public functions of the facade, instruction-feed,
// cache and snapshot layers directly, with real payloads: ICOUNT.2.8 at 8
// threads, rotation 0, the sweep budgets, one smt.Results and one warmed
// checkpoint. Every traced run takes them; they cost about two seconds.
func (e *env) layerProbes() error {
	z := e.z
	e.probe = e.rec.begin(e.root, "", "probe.layers")
	defer e.rec.end(e.probe)
	cfg := icount28(8)
	seed := coreSeed
	spec := smt.WorkloadMix(cfg.Threads, 0, seed)
	records := z.warmup + z.measure
	records += records>>3 + 1024 // the trace prefix exp sizes for these budgets

	// smt facade.
	var err error
	e.layer.set("smt.new_ms", ms(e.medianOf("smt.new", z.probeReps, nil, func() {
		_, err = smt.New(cfg, spec)
	})))
	if err != nil {
		return err
	}
	var ts *smt.TraceSet
	e.layer.set("smt.trace_build_ms", ms(e.medianOf("smt.trace_build", z.probeReps, nil, func() {
		ts, err = smt.BuildTraceSet(spec, records)
	})))
	if err != nil {
		return err
	}
	e.layer.set("smt.trace_bytes", float64(ts.Bytes()))
	var sim *smt.Simulator
	e.layer.set("smt.replay_new_ms", ms(e.medianOf("smt.replay_new", z.probeReps, nil, func() {
		sim, err = smt.NewReplay(cfg, ts)
	})))
	if err != nil {
		return err
	}
	e.rec.timed(e.probe, "", "smt.warmup", func() { sim.Warmup(z.warmup * int64(cfg.Threads)) })
	var ckpt []byte
	e.layer.set("smt.snapshot_save_ms", ms(e.medianOf("smt.snapshot_save", z.probeReps, nil, func() {
		ckpt, err = sim.SaveSnapshot()
	})))
	if err != nil {
		return err
	}
	e.layer.set("smt.snapshot_bytes", float64(len(ckpt)))
	var fresh *smt.Simulator
	e.layer.set("smt.snapshot_restore_ms", ms(e.medianOf("smt.snapshot_restore", z.probeReps,
		func() { fresh, _ = smt.NewReplay(cfg, ts) },
		func() { err = fresh.RestoreSnapshot(ckpt) })))
	if err != nil {
		return err
	}
	results := fresh.Run(1000)

	// Instruction feed: one program walked live, pre-decoded, and replayed.
	prof, err := workload.ProfileByName(spec.Names[0])
	if err != nil {
		return err
	}
	prog, err := workload.New(prof, seed, 0)
	if err != nil {
		return err
	}
	n := records
	walker := workload.NewWalker(prog)
	d := e.rec.timed(e.probe, "", "workload.walker", func() {
		for i := int64(0); i < n; i++ {
			walker.Next()
		}
	})
	e.layer.set("workload.walker_ns_per_record", float64(d.Nanoseconds())/float64(n))
	var tr *workload.Trace
	d = e.rec.timed(e.probe, "", "workload.build_trace", func() { tr = workload.BuildTrace(prog, n) })
	e.layer.set("workload.build_trace_ns_per_record", float64(d.Nanoseconds())/float64(n))
	cur := tr.NewCursor()
	d = e.rec.timed(e.probe, "", "workload.cursor", func() {
		for i := int64(0); i < n; i++ {
			cur.Next()
		}
	})
	e.layer.set("workload.cursor_ns_per_record", float64(d.Nanoseconds())/float64(n))

	// Cache tiers.
	key := func(i int) string { return fmt.Sprintf("probe:r0:s%d:w%d:m%d", i, z.warmup, z.measure) }
	const storeOps = 4096
	store := cache.New[smt.Results](storeOps)
	d = e.rec.timed(e.probe, "", "cache.store_put", func() {
		for i := 0; i < storeOps; i++ {
			store.Put(key(i), results)
		}
	})
	e.layer.set("cache.store_put_ns", float64(d.Nanoseconds())/storeOps)
	d = e.rec.timed(e.probe, "", "cache.store_get", func() {
		for i := 0; i < storeOps; i++ {
			store.Get(key(i))
		}
	})
	e.layer.set("cache.store_get_ns", float64(d.Nanoseconds())/storeOps)

	dir, err := e.procs.tempDir("probe")
	if err != nil {
		return err
	}
	disk, err := cache.NewDisk[smt.Results](dir)
	if err != nil {
		return err
	}
	snapDisk, err := cache.NewDisk[[]byte](dir + "/snapshots")
	if err != nil {
		return err
	}
	i := 0
	reps := z.probeReps * 4
	e.layer.set("cache.disk_put_us", us(e.medianOf("cache.disk_put", reps, func() { i++ }, func() { disk.Put(key(i), results) })))
	i = 0
	ok := true
	hit := func(found bool) { ok = ok && found }
	e.layer.set("cache.disk_get_us", us(e.medianOf("cache.disk_get", reps, func() { i++ }, func() {
		_, found := disk.Get(key(i))
		hit(found)
	})))
	tiered := cache.NewTiered(cache.New[smt.Results](storeOps), disk)
	i = 0
	e.layer.set("cache.tiered_promote_us", us(e.medianOf("cache.tiered_promote", reps, func() { i++ }, func() {
		_, found := tiered.Get(key(i))
		hit(found)
	})))
	i = 0
	e.layer.set("cache.disk_snap_put_us", us(e.medianOf("cache.disk_snap_put", z.probeReps, func() { i++ }, func() { snapDisk.Put(key(i), ckpt) })))
	i = 0
	e.layer.set("cache.disk_snap_get_us", us(e.medianOf("cache.disk_snap_get", z.probeReps, func() { i++ }, func() {
		got, found := snapDisk.Get(key(i))
		hit(found && bytes.Equal(got, ckpt))
	})))

	// The counting snapshot store over memory+disk tiers, as smtd stacks it.
	snaps := snapshot.NewStore(cache.NewTiered(cache.New[[]byte](128), snapDisk))
	i = z.probeReps
	e.layer.set("snapshot.store_put_ms", ms(e.medianOf("snapshot.store_put", z.probeReps, func() { i++ }, func() { snaps.Put(key(i), ckpt) })))
	i = 0 // the keys put straight to disk above: a get is a disk read plus promotion
	e.layer.set("snapshot.store_get_ms", ms(e.medianOf("snapshot.store_get", z.probeReps, func() { i++ }, func() {
		_, found := snaps.Get(key(i))
		hit(found)
	})))
	if !ok {
		return fmt.Errorf("layer probes: a cache tier lost a value it was just given")
	}
	return nil
}

// remoteProbes times cache.Remote against a running smtd over loopback. It
// runs after the workload's /metrics scrape: its keys land in the server's
// cache.
func (e *env) remoteProbes(base string) {
	parent := e.rec.begin(e.root, "", "probe.remote")
	defer e.rec.end(parent)
	e.probe = parent
	remote := cache.NewRemote[smt.Results](base, nil)
	var results smt.Results
	results.CommittedByThread = []int64{1}
	i := 0
	key := func() string { return fmt.Sprintf("probe-remote:%d", i) }
	reps := e.z.probeReps * 4
	e.layer.set("cache.remote_put_us", us(e.medianOf("cache.remote_put", reps, func() { i++ }, func() { remote.Put(key(), results) })))
	i = 0
	ok := true
	e.layer.set("cache.remote_get_us", us(e.medianOf("cache.remote_get", reps, func() { i++ }, func() {
		_, found := remote.Get(key())
		ok = ok && found
	})))
	if !ok {
		e.ops.check(fmt.Errorf("cache.Remote lost a value it had just put"))
	}
}

// expRun is one in-process sweep through exp.Runner.
type expRun struct {
	result []byte
	wall   float64
}

// tracedSeams decorates the runner's Cache, Dispatch and OnJobDone seams
// (and, inside Dispatch, the Snapshots seam), so each job is one span with
// cache-get, simulate, snapshot-get/put and cache-put children.
type tracedSeams struct {
	e      *env
	sweep  int // the sweep's span
	id     string
	cache  exp.JobCache
	snaps  exp.SnapshotStore
	traces *snapshot.TraceCache

	mu   sync.Mutex
	jobs map[string]int // result key -> job span
}

func (t *tracedSeams) job(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.jobs[key]
	if !ok {
		id = t.e.rec.begin(t.sweep, t.id, "exp.job")
		t.jobs[key] = id
	}
	return id
}

func (t *tracedSeams) Get(key string) (r smt.Results, ok bool) {
	t.e.rec.timed(t.job(key), t.id, "cache.get", func() { r, ok = t.cache.Get(key) })
	return r, ok
}

func (t *tracedSeams) Put(key string, r smt.Results) {
	t.e.rec.timed(t.job(key), t.id, "cache.put", func() { t.cache.Put(key, r) })
}

// Dispatch simulates the job in this process exactly as the runner's own
// local path would, inside a span.
func (t *tracedSeams) Dispatch(ctx context.Context, j exp.Job, o exp.Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
	s := t.e.rec.begin(t.job(j.Key(o)), t.id, "exp.simulate")
	defer t.e.rec.end(s)
	env := exp.WarmEnv{Snapshots: tracedSnaps{t, s}, Traces: t.traces}
	return exp.SimulateEnv(j.Spec.Config, j.Run, exp.JobSeed(o.Normalized().Seed, j.Run), o, interval, onSnap, env), nil
}

type tracedSnaps struct {
	t      *tracedSeams
	parent int
}

func (s tracedSnaps) Get(key string) (data []byte, ok bool) {
	s.t.e.rec.timed(s.parent, s.t.id, "snapshot.get", func() { data, ok = s.t.snaps.Get(key) })
	return data, ok
}

func (s tracedSnaps) Put(key string, data []byte) {
	s.t.e.rec.timed(s.parent, s.t.id, "snapshot.put", func() { s.t.snaps.Put(key, data) })
}

// expInProcess runs the grid through an in-process exp.Runner{Workers: 2}
// over the same tier stack smtd builds (singleflight over memory over
// disk; counting snapshot store over memory over disk; trace cache) —
// first cold at opts, then again one measured instruction shorter, so
// every job restores its checkpoint. It returns the cold run.
func (e *env) expInProcess(ctx context.Context, o exp.Opts) (expRun, error) {
	dir, err := e.procs.tempDir("exp")
	if err != nil {
		return expRun{}, err
	}
	disk, err := cache.NewDisk[smt.Results](dir)
	if err != nil {
		return expRun{}, err
	}
	snapDisk, err := cache.NewDisk[[]byte](dir + "/snapshots")
	if err != nil {
		return expRun{}, err
	}
	results := cache.NewFlight[smt.Results](cache.NewTiered(cache.New[smt.Results](4096), disk))
	snaps := snapshot.NewStore(cache.NewTiered(cache.New[[]byte](128), snapDisk))
	traces := snapshot.NewTraceCache(0)
	const workers = 2

	run := func(id string, o exp.Opts) (expRun, []float64, float64, error) {
		sweep := e.rec.begin(e.root, id, "exp.sweep")
		seams := &tracedSeams{e: e, sweep: sweep, id: id, cache: results, snaps: snaps, traces: traces, jobs: map[string]int{}}
		runner := exp.Runner{
			Workers:  workers,
			Cache:    seams,
			Dispatch: seams,
			OnJobDone: func(j exp.Job, _ smt.Results, _ bool) {
				e.rec.end(seams.job(j.Key(o)))
			},
		}
		t0 := time.Now()
		res, err := runner.RunExperiment(ctx, gridExperiment(e.z.points), o)
		wall := time.Since(t0).Seconds()
		e.rec.end(sweep)
		if e.ops.check(err) != nil {
			return expRun{}, nil, 0, err
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			return expRun{}, nil, 0, err
		}
		// Per-job simulate self time (build + warm or restore + measure) and
		// the pool's busy time, from this sweep's spans.
		spans := e.rec.snapshot()
		self := selfTimes(spans)
		var simulateMs []float64
		var busy float64
		for _, s := range spans {
			if s.Sweep != id {
				continue
			}
			switch s.Name {
			case "exp.simulate":
				simulateMs = append(simulateMs, self[s.ID]*1e3)
			case "exp.job":
				busy += float64(s.End-s.Start) / 1e9
			}
		}
		return expRun{result: buf.Bytes(), wall: wall}, simulateMs, 1 - busy/(workers*wall), nil
	}

	cold, selfMs, idle, err := run("exp-cold", o)
	if err != nil {
		return expRun{}, err
	}
	e.layer.set("exp.cold_wall_s", cold.wall)
	e.layer.set("exp.job_self_ms_p50", median(selfMs))
	e.layer.set("exp.job_self_ms_p90", quantile(selfMs, 0.9))
	e.layer.set("exp.pool_idle_frac", idle)
	o.Measure--
	restored, selfMs, _, err := run("exp-restored", o)
	if err != nil {
		return expRun{}, err
	}
	e.layer.set("exp.restored_wall_s", restored.wall)
	e.layer.set("exp.restored_job_self_ms_p50", median(selfMs))
	if st := snaps.Stats(); st.Hits != int64(len(e.z.points)) {
		e.ops.check(fmt.Errorf("in-process restored sweep: %d checkpoint hits for %d jobs", st.Hits, len(e.z.points)))
	}
	return cold, nil
}
