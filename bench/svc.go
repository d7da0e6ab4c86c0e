//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
)

// pollEvery is the status poll period of an asynchronous sweep. It adds up
// to one period to each submit-to-result latency, so it is kept well under
// a hundredth of the shortest sweep.
const pollEvery = 25 * time.Millisecond

// sample is one completed sweep as the client saw it.
type sample struct {
	opts   exp.Opts
	result []byte
	tm     sweepTiming
	jobs   int
	cycles int64 // simulated cycles summed over the sweep's jobs
	instr  int64 // committed instructions summed over the sweep's jobs
}

// boot starts a coordinator with two local slots on a cache dir and
// returns it with its exec-to-healthy time.
func (e *env) boot(ctx context.Context, dir string) (*child, float64, error) {
	t0 := time.Now()
	c, err := e.procs.start(ctx, "smtd", "-workers", "2", "-cache-dir", dir)
	return c, time.Since(t0).Seconds(), e.ops.check(err)
}

// bootFresh boots a coordinator on a new, empty cache dir.
func (e *env) bootFresh(ctx context.Context) (*child, error) {
	dir, err := e.freshDir()
	if err != nil {
		return nil, err
	}
	c, _, err := e.boot(ctx, dir)
	return c, err
}

// setupReps is how often a workload whose set-up takes a fraction of a
// second performs it: one build check and process start on a busy host is
// a noisy number, so setup_s is the median of three.
const setupReps = 3

// setUp runs up setupReps times, undoing all but the last with down, and
// records the median duration as setup_s.
func (e *env) setUp(up func() error, down func()) error {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			down()
		}
		t0 := time.Now()
		if err := up(); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	e.e2e.set("setup_s", median(secs))
	return nil
}

func (e *env) freshDir() (string, error) { return e.procs.tempDir("cache") }

// body builds the sweep request for the pinned grid.
func (e *env) body(o exp.Opts, wait bool) (sweepBody, error) {
	grid, err := wireGrid(e.z.points)
	return sweepBody{Name: gridName, Grid: grid, Opts: o, Wait: wait}, err
}

// sweep runs one asynchronous sweep of the grid and sizes its simulated work.
func (e *env) sweep(ctx context.Context, cl *client, id string, o exp.Opts) (sample, error) {
	b, err := e.body(o, false)
	if err != nil {
		return sample{}, err
	}
	result, st, tm, err := cl.runSweep(ctx, e.root, id, b, pollEvery)
	if err != nil {
		return sample{}, err
	}
	s := sample{opts: o, result: result, tm: tm, jobs: st.TotalJobs}
	res, err := decodeResult(result)
	if e.ops.check(err) != nil {
		return s, err
	}
	for _, sr := range res.Series {
		for _, p := range sr.Points {
			s.cycles += p.Results.Cycles
			s.instr += p.Results.Committed
		}
	}
	return s, nil
}

// coldSweeps runs the run's cold sweeps — one per pinned seed, in the
// order --seed drew — from one closed-loop client, and also returns the
// sweep of the first pinned seed (coreSeed), which the checks and the simulated
// metrics use whatever order it ran in.
func (e *env) coldSweeps(ctx context.Context, cl *client, tag string, n int) (all []sample, ref sample, err error) {
	for i, seed := range sweepSeeds(e.rng, n) {
		s, err := e.sweep(ctx, cl, fmt.Sprintf("%s-%d", tag, i), e.z.opts(seed, e.z.measure))
		if err != nil {
			return nil, sample{}, err
		}
		all = append(all, s)
		if seed == coreSeed {
			ref = s
		}
	}
	return all, ref, nil
}

// coldPhase is the measured part svc_cold and svc_dist share: n cold sweeps
// between two /metrics scrapes, the end-to-end rates and latency, the
// model-error metrics from the reference sweep, the counter and shell
// layers, and the resubmission check. It returns the reference sweep and
// the counter deltas.
func (e *env) coldPhase(ctx context.Context, cl *client, tag string, n int) (ref sample, d map[string]float64, err error) {
	before, err := cl.metrics(ctx, e.root)
	if err != nil {
		return ref, nil, err
	}
	sweeps, ref, err := e.coldSweeps(ctx, cl, tag, n)
	if err != nil {
		return ref, nil, err
	}
	after, err := cl.metrics(ctx, e.root)
	if err != nil {
		return ref, nil, err
	}
	throughput(e.e2e, sweeps)
	var totalMs []float64
	for _, s := range sweeps {
		totalMs = append(totalMs, s.tm.total.Seconds()*1e3)
	}
	e.e2e.set("req_p50_ms", median(totalMs))
	if err := e.ops.check(paperFromSweep(e, ref.result)); err != nil {
		return ref, nil, err
	}
	d = delta(before, after)
	counterLayers(e.layer, d)
	shellLayers(e.layer, sweeps, ref)
	body, err := e.body(ref.opts, true)
	if err != nil {
		return ref, nil, err
	}
	_, err = e.resubmit(ctx, cl, "resubmit", body, ref.result)
	return ref, d, err
}

// throughput sets the rate and latency metrics every service workload
// shares from its timed sweeps: medians of the per-sweep rates.
func throughput(e2e *metricSet, sweeps []sample) {
	var jobs, kcyc, kinstr []float64
	for _, s := range sweeps {
		secs := s.tm.total.Seconds()
		jobs = append(jobs, float64(s.jobs)/secs)
		kcyc = append(kcyc, float64(s.cycles)/secs/1e3)
		kinstr = append(kinstr, float64(s.instr)/secs/1e3)
	}
	e2e.set("jobs_per_s", median(jobs))
	e2e.set("sim_kcycles_per_s", median(kcyc))
	e2e.set("sim_kinstr_per_s", median(kinstr))
}

// shellLayers emits what the client saw of the service shell; ref is the
// sweep whose result size is reported.
func shellLayers(m *metricSet, sweeps []sample, ref sample) {
	var ack, fetch []float64
	for _, s := range sweeps {
		ack = append(ack, s.tm.ack.Seconds()*1e3)
		fetch = append(fetch, s.tm.fetch.Seconds()*1e3)
	}
	m.set("smtd.submit_ack_ms", median(ack))
	m.set("smtd.result_fetch_ms", median(fetch))
	m.set("smtd.result_bytes", float64(len(ref.result)))
}

// counterLayers emits the cache, snapshot and trace counters a workload
// moved, from /metrics scraped before and after it.
func counterLayers(m *metricSet, d map[string]float64) {
	memHits, memMisses := d["smtd_cache_memory_hits_total"], d["smtd_cache_memory_misses_total"]
	diskHits := d["smtd_cache_disk_hits_total"]
	m.set("cache.mem_hits", memHits)
	m.set("cache.mem_misses", memMisses)
	m.set("cache.disk_hits", diskHits)
	m.set("cache.disk_misses", d["smtd_cache_disk_misses_total"])
	m.set("cache.hit_ratio", ratio(memHits+diskHits, memHits+memMisses))
	m.set("snapshot.hits", d["smtd_snapshot_hits_total"])
	m.set("snapshot.misses", d["smtd_snapshot_misses_total"])
	m.set("snapshot.puts", d["smtd_snapshot_puts_total"])
	m.set("snapshot.bytes_loaded", d["smtd_snapshot_bytes_loaded_total"])
	m.set("snapshot.bytes_stored", d["smtd_snapshot_bytes_stored_total"])
	m.set("snapshot.mem_evictions", d["smtd_snapshot_memory_evictions_total"])
	builds, reuses := d["smtd_trace_builds_total"], d["smtd_trace_reuses_total"]
	m.set("snapshot.trace_builds", builds)
	m.set("snapshot.trace_reuses", reuses)
	m.set("snapshot.trace_evictions", d["smtd_trace_evictions_total"])
	m.set("snapshot.trace_reuse_ratio", ratio(reuses, builds+reuses))
}

// rss adds the peak resident sets of live children.
func (e *env) rss(kids ...*child) (float64, error) {
	var total float64
	for _, c := range kids {
		mb, err := vmHWM(c.cmd.Process.Pid)
		if e.ops.check(err) != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// paperFromSweep sets the model-error metrics from one sweep result: the
// grid carries ICOUNT.2.8 at 8 threads and the superscalar.
func paperFromSweep(e *env, result []byte) error {
	res, err := decodeResult(result)
	if err != nil {
		return err
	}
	var icount, base float64
	for _, p := range res.Lookup(icountSeries) {
		e.layer.set(fmt.Sprintf("core.icount28.ipc_t%d", p.Threads), p.IPC)
		if p.Threads == 8 {
			icount = p.IPC
		}
	}
	for _, p := range res.Lookup(baselineSeries) {
		base = p.IPC
	}
	if icount == 0 || base == 0 {
		return fmt.Errorf("sweep result lacks %s at 8 threads or %s", icountSeries, baselineSeries)
	}
	paperErrors(e.e2e, icount, base)
	return nil
}

// runSvcCold is the svc_cold workload: a fresh smtd on an empty cache dir
// takes cold sweeps of the grid from one closed-loop client. Traced, it
// runs one service sweep and then the same sweep through an in-process
// exp.Runner with timing decorators on its seams, so the service's result
// bytes are checked against the engine's and each job's time is split.
func runSvcCold(ctx context.Context, e *env) error {
	var srv *child
	err := e.setUp(func() (err error) {
		if err = e.ops.check(e.procs.build(ctx, e.dir)); err == nil {
			srv, err = e.bootFresh(ctx)
		}
		return err
	}, func() { srv.stop(ctx) })
	if err != nil {
		return err
	}
	cl := newClient(srv.base(), e.ops, e.rec)

	n := e.z.coldSweeps
	if e.rec != nil {
		n = 1 // one service sweep; the rest of the window goes to the in-process twin
	}
	ref, _, err := e.coldPhase(ctx, cl, "cold", n)
	if err != nil {
		return err
	}
	if e.rec == nil {
		e.ops.check(e.checkSampled(ref))
	} else {
		e.remoteProbes(srv.base())
		cold, err := e.expInProcess(ctx, ref.opts)
		if err != nil {
			return err
		}
		e.ops.check(sameBytes("svc_cold result vs in-process exp.Runner", ref.result, cold.result))
		e.layer.set("smtd.overhead_frac", ref.tm.total.Seconds()/cold.wall-1)
	}
	rss, err := e.rss(srv)
	if err != nil {
		return err
	}
	e.e2e.set("peak_rss_mb", rss)
	e.layer.set("smtd.drain_s", srv.stop(ctx).Seconds())
	return nil
}

// runSvcWarm is the svc_warm workload: the cache and snapshot layers used
// the other way. Set-up primes a cache dir with one cold sweep, drains that
// smtd and boots a new one on the same dir. The hit phase resubmits the
// primed sweep from two closed-loop clients; the restored phase sweeps the
// grid at measure budgets one instruction apart (same warmup and seed, so
// the same checkpoint keys, but new result keys and equal work), each a
// result-cache miss whose every job restores a checkpoint.
func runSvcWarm(ctx context.Context, e *env) error {
	t0 := time.Now()
	if err := e.ops.check(e.procs.build(ctx, e.dir)); err != nil {
		return err
	}
	dir, err := e.freshDir()
	if err != nil {
		return err
	}
	first, _, err := e.boot(ctx, dir)
	if err != nil {
		return err
	}
	primeOpts := e.z.opts(coreSeed, e.z.primeMeasure)
	primed, err := e.sweep(ctx, newClient(first.base(), e.ops, e.rec), "prime", primeOpts)
	if err != nil {
		return err
	}
	rss, err := e.rss(first)
	if err != nil {
		return err
	}
	e.layer.set("smtd.drain_s", first.stop(ctx).Seconds())
	srv, bootS, err := e.boot(ctx, dir)
	if err != nil {
		return err
	}
	e.layer.set("smtd.boot_warm_s", bootS)
	e.e2e.set("setup_s", time.Since(t0).Seconds())
	cl := newClient(srv.base(), e.ops, e.rec)
	before, err := cl.metrics(ctx, e.root)
	if err != nil {
		return err
	}

	// Hit phase: two closed-loop clients share the resubmission count.
	hitBody, err := e.body(primeOpts, true)
	if err != nil {
		return err
	}
	var (
		mu     sync.Mutex
		hitMs  []float64
		hitErr error
		next   = 1
	)
	hit := func(n int) {
		tm, err := e.resubmit(ctx, cl, fmt.Sprintf("hit-%d", n), hitBody, primed.result)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && hitErr == nil {
			hitErr = err
		}
		hitMs = append(hitMs, tm.total.Seconds()*1e3)
	}
	// The first resubmission runs alone: it promotes the primed results from
	// disk to memory, and two clients racing through that would make the
	// tier counters depend on scheduling.
	hitStart := time.Now()
	hit(0)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				n := next
				next++
				stop := n >= e.z.hitResubmits || hitErr != nil
				mu.Unlock()
				if stop {
					return
				}
				hit(n)
			}
		}()
	}
	wg.Wait()
	hitWall := time.Since(hitStart)
	if hitErr != nil {
		return hitErr
	}
	e.e2e.set("req_p50_ms", median(hitMs))
	e.layer.set("smtd.hit_p50_ms", median(hitMs))
	e.layer.set("smtd.hit_p99_ms", quantile(hitMs, 0.99))
	e.layer.set("smtd.hit_sweeps_per_s", float64(len(hitMs))/hitWall.Seconds())

	// Restored phase.
	var sweeps []sample
	for k := 0; k < e.z.restoredSweeps; k++ {
		s, err := e.sweep(ctx, cl, fmt.Sprintf("restored-%d", k), e.z.opts(coreSeed, e.z.measure-int64(k)))
		if err != nil {
			return err
		}
		sweeps = append(sweeps, s)
	}
	after, err := cl.metrics(ctx, e.root)
	if err != nil {
		return err
	}
	throughput(e.e2e, sweeps)
	if err := e.ops.check(paperFromSweep(e, sweeps[0].result)); err != nil {
		return err
	}
	d := delta(before, after)
	counterLayers(e.layer, d)
	shellLayers(e.layer, sweeps, sweeps[0])
	var restoredJobs float64
	for _, s := range sweeps {
		restoredJobs += float64(s.jobs)
	}
	if d["smtd_snapshot_hits_total"] != restoredJobs || d["smtd_snapshot_misses_total"] != 0 {
		err = fmt.Errorf("restored phase: %v checkpoint hits and %v misses for %v jobs, want every job restored",
			d["smtd_snapshot_hits_total"], d["smtd_snapshot_misses_total"], restoredJobs)
	}
	e.ops.check(err)
	e.ops.check(e.checkSampled(sweeps[0]))
	if e.rec != nil {
		e.remoteProbes(srv.base())
	}

	rss2, err := e.rss(srv)
	if err != nil {
		return err
	}
	e.e2e.set("peak_rss_mb", rss+rss2)
	srv.stop(ctx)
	return nil
}

// runSvcDist is the svc_dist workload: the svc_cold sweeps against a
// coordinator with two one-slot worker processes joined, so the simulated
// work is identical and the difference is leasing, wire encoding and
// checkpoint shipping. Traced, the workers join through a byte-counting
// loopback proxy and one sweep first runs on a plain local smtd as the
// reference for dist.overhead_frac and for byte equality.
func runSvcDist(ctx context.Context, e *env) error {
	var local sample
	if e.rec != nil {
		if err := e.ops.check(e.procs.build(ctx, e.dir)); err != nil {
			return err
		}
		plain, err := e.bootFresh(ctx)
		if err != nil {
			return err
		}
		if local, err = e.sweep(ctx, newClient(plain.base(), e.ops, e.rec), "local-ref", e.z.opts(coreSeed, e.z.measure)); err != nil {
			return err
		}
		plain.stop(ctx)
	}

	var f *fleet
	err := e.setUp(func() (err error) {
		if err = e.ops.check(e.procs.build(ctx, e.dir)); err == nil {
			f, err = e.startFleet(ctx)
		}
		return err
	}, func() { f.stop(ctx) })
	if err != nil {
		return err
	}
	defer f.stop(ctx)
	coord, cl, px := f.coord, f.cl, f.px

	n := e.z.coldSweeps
	if e.rec != nil {
		n = max(1, n-1) // the local reference sweep took one sweep's share of the window
	}
	ref, d, err := e.coldPhase(ctx, cl, "dist", n)
	if err != nil {
		return err
	}

	st, err := cl.workers(ctx, e.root)
	if err != nil {
		return err
	}
	jobs := float64(n * len(e.z.points))
	remote, localDone := d["smtd_dist_remote_done_total"], d["smtd_dist_local_done_total"]
	if remote+localDone != jobs || remote == 0 {
		err = fmt.Errorf("%v jobs swept but %v done remotely and %v locally", jobs, remote, localDone)
	}
	e.ops.check(err)
	leases := d["smtd_dist_leases_total"]
	e.layer.set("dist.leases", leases)
	e.layer.set("dist.lease_wait_ms_per_job", ratio(d["smtd_dist_lease_wait_seconds_total"]*1e3, leases))
	e.layer.set("dist.requeues", d["smtd_dist_requeues_total"])
	e.layer.set("dist.remote_done", remote)
	e.layer.set("dist.local_done", localDone)
	lo, hi := st.Workers[0].Completed, st.Workers[0].Completed
	for _, w := range st.Workers {
		lo, hi = min(lo, w.Completed), max(hi, w.Completed)
	}
	e.layer.set("dist.worker_balance", ratio(float64(lo), float64(hi)))
	retries := d["smtd_retry_total"]
	for _, w := range f.workers {
		retries += float64(w.countLines("retrying"))
	}
	e.layer.set("resilience.retries", retries)
	e.layer.set("resilience.backoff_s", d["smtd_backoff_seconds_total"])
	var opens float64
	for _, b := range st.Breakers {
		opens += float64(b.Opens)
	}
	e.layer.set("resilience.breaker_opens", opens)

	if e.rec == nil {
		e.ops.check(e.checkSampled(ref))
	} else {
		e.ops.check(sameBytes("svc_dist result vs local smtd", ref.result, local.result))
		e.layer.set("dist.overhead_frac", ref.tm.total.Seconds()/local.tm.total.Seconds()-1)
		e.layer.set("dist.wire_bytes_per_job", ratio(float64(px.bytes()), remote))
		e.remoteProbes(coord.base())
	}

	rss, err := e.rss(append(f.workers, coord)...)
	if err != nil {
		return err
	}
	e.e2e.set("peak_rss_mb", rss)
	return nil
}

// fleet is the svc_dist topology: a coordinator and two one-slot workers,
// joined directly or, when tracing, through a byte-counting proxy.
type fleet struct {
	coord   *child
	cl      *client
	workers []*child
	px      *proxy // nil when untraced
}

// startFleet boots the coordinator and workers and returns once both
// workers' slots are registered.
func (e *env) startFleet(ctx context.Context) (*fleet, error) {
	coord, err := e.bootFresh(ctx)
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, cl: newClient(coord.base(), e.ops, e.rec)}
	join := coord.base()
	if e.rec != nil {
		if f.px, err = startProxy(coord.addr); e.ops.check(err) != nil {
			return nil, err
		}
		join = "http://" + f.px.addr()
	}
	for _, name := range []string{"w1", "w2"} {
		w, err := e.procs.start(ctx, name, "-worker", "-join", join, "-workers", "1", "-name", name)
		if e.ops.check(err) != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	for {
		st, err := f.cl.workers(ctx, e.root)
		if err != nil {
			return nil, err
		}
		if st.Capacity >= len(f.workers) {
			return f, nil
		}
		select {
		case <-ctx.Done():
			return nil, e.ops.check(fmt.Errorf("workers never registered: %w\n%s", ctx.Err(), f.workers[0].log()))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains the workers, then the coordinator, then closes the proxy.
func (f *fleet) stop(ctx context.Context) {
	for _, w := range f.workers {
		w.stop(ctx)
	}
	f.coord.stop(ctx)
	if f.px != nil {
		f.px.close()
	}
}

// resubmit submits a sweep whose results are already cached and waits for
// it: every job must come from the cache and the bytes must equal want.
func (e *env) resubmit(ctx context.Context, cl *client, id string, body sweepBody, want []byte) (sweepTiming, error) {
	result, st, tm, err := cl.runSweep(ctx, e.root, id, body, pollEvery)
	if err != nil {
		return tm, err
	}
	if st.CacheHits != st.TotalJobs {
		err = fmt.Errorf("%s: %d of %d jobs served from cache", id, st.CacheHits, st.TotalJobs)
	} else {
		err = sameBytes(id+" result", result, want)
	}
	return tm, e.ops.check(err)
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the %d expected", what, len(got), len(want))
	}
	return nil
}
