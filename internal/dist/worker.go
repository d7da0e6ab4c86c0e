package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/resilience"
	"repro/internal/snapshot"
	"repro/smt"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name labels the worker in the coordinator's registry; default
	// "worker".
	Name string
	// Slots is how many simulations run concurrently, and how many jobs
	// the worker leases at most; <=0 means runtime.GOMAXPROCS(0).
	Slots int
	// Exec runs one job payload; default SimulateJob under Warm.
	Exec Exec
	// Warm is the default executor's acceleration environment: warmup
	// checkpoints and per-context trace replay. When Warm.Snapshots is nil
	// and the coordinator advertises a cache, checkpoints are shared
	// through the coordinator's /v1/cache endpoint under the run context:
	// one worker's cold warmup becomes every worker's restore, and a
	// draining worker's checkpoint traffic aborts instead of waiting out
	// the client timeout.
	Warm exp.WarmEnv
	// Client is the HTTP client used for every coordinator call,
	// including long polls — so a custom client's Timeout must exceed the
	// coordinator's PollWait. When nil, ordinary calls get a 30s-timeout
	// default and long polls get a dedicated timeout-free client bounded
	// per-request at PollWait plus a margin.
	Client *http.Client
	// Backoff is the base retry pause after a failed coordinator call;
	// default 500ms. It seeds the worker's retry policy: 3 attempts,
	// Backoff base doubling to 10x Backoff, jitter seeded from the worker
	// name so a fleet's retries do not synchronize.
	Backoff time.Duration
	// DrainGrace bounds how long a draining worker keeps retrying result
	// delivery against an unresponsive coordinator before abandoning the
	// posts and deregistering; default 15s. Without the bound, a dead
	// coordinator would stall a SIGTERM'd worker for the full client
	// timeout times every retry.
	DrainGrace time.Duration
	// Build is the worker's binary identity sent at registration;
	// defaults to BuildID().
	Build string
	// Logf receives worker events; nil discards them.
	Logf func(format string, args ...any)
}

// Worker leases only jobs it can start at once, simulates each with the
// engine's canonical kernel, and posts each result as it finishes.
// Cancelling the context passed to Run drains the worker: in-flight
// simulations run to completion and post their results, then the worker
// deregisters — a SIGTERM'd node never strands a lease until expiry.
type Worker struct {
	opts       WorkerOptions
	base       string
	client     *http.Client
	pollClient *http.Client // no global timeout; polls are bounded per-request
	logf       func(string, ...any)
	retry      resilience.Policy

	// pctx governs result posts and the goodbye deregister. It lives
	// past the run context — drain still delivers — but is cancelled
	// once a drain has been stuck for DrainGrace, so a dead coordinator
	// cannot wedge shutdown behind client timeouts (see Run).
	pctx    context.Context
	pcancel context.CancelFunc

	// run is Run's context. The checkpoint store built at registration is
	// bound to it, so once a drain starts its peeks miss and its fills drop.
	run context.Context

	// regMu serializes (re-)registration so a coordinator that forgot us
	// triggers exactly one rejoin, not one per loop that sees the 404 —
	// a storm would register N ghost identities advertising N slots each.
	regMu sync.Mutex

	draining atomic.Bool // run ctx cancelled: no new identities, no new jobs

	mu       sync.Mutex
	id       string
	leaseTTL time.Duration
	pollWait time.Duration
	warm     exp.WarmEnv // opts.Warm, its Snapshots filled in at registration when unset
	done     int64       // jobs whose results the coordinator accepted
	fatal    error       // permanent rejection observed mid-run (build mismatch)
}

func (w *Worker) setFatal(err error) {
	w.mu.Lock()
	if w.fatal == nil {
		w.fatal = err
	}
	w.mu.Unlock()
}

// NewWorker builds a worker; Run starts it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.Slots <= 0 {
		opts.Slots = runtime.GOMAXPROCS(0)
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 500 * time.Millisecond
	}
	if opts.DrainGrace <= 0 {
		opts.DrainGrace = 15 * time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(opts.Name))
	retry := resilience.Policy{
		MaxAttempts: 3,
		BaseDelay:   opts.Backoff,
		MaxDelay:    10 * opts.Backoff,
		Seed:        h.Sum64(),
	}
	if opts.Build == "" {
		opts.Build = BuildID()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := opts.Client
	pollClient := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
		pollClient = &http.Client{} // polls are bounded by per-request contexts
	}
	pctx, pcancel := context.WithCancel(context.Background())
	return &Worker{
		opts:       opts,
		base:       strings.TrimRight(opts.Coordinator, "/"),
		client:     client,
		pollClient: pollClient,
		logf:       logf,
		retry:      retry,
		pctx:       pctx,
		pcancel:    pcancel,
		warm:       opts.Warm,
	}
}

// exec resolves the executor for one job: an explicit Exec verbatim, else
// the canonical kernel under the current warm environment — the snapshot
// store may have been auto-built at (re-)registration, so the binding is
// per-job, not per-worker.
func (w *Worker) exec() Exec {
	if w.opts.Exec != nil {
		return w.opts.Exec
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return SimulateJob(w.warm)
}

// ID returns the coordinator-assigned worker id ("" before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// JobsDone returns how many jobs this worker has completed.
func (w *Worker) JobsDone() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

// Run registers with the coordinator and serves jobs until ctx is
// cancelled, then drains: running simulations finish and post results
// before Run deregisters and returns. The returned error is non-nil only
// when registration never succeeded.
func (w *Worker) Run(ctx context.Context) error {
	w.run = ctx
	if err := w.register(ctx); err != nil {
		return err
	}
	// Heartbeats outlive ctx: they must keep renewing our leases while
	// the drain finishes in-flight simulations, or a job longer than the
	// lease TTL would be declared dead — and re-simulated elsewhere — in
	// the middle of a graceful shutdown.
	hbCtx, hbCancel := context.WithCancel(context.Background())
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(hbCtx)
	}()
	delivered := make(chan struct{})
	go func() {
		<-ctx.Done()
		w.draining.Store(true)
		// Give post-shutdown result delivery a bounded grace, then cut
		// the post context: a coordinator that died mid-drain stops
		// stalling the shutdown the moment the grace expires, instead of
		// holding it for client-timeout x retries. A drain that finishes
		// inside the grace (the normal case) never sees the cut.
		t := time.NewTimer(w.opts.DrainGrace)
		defer t.Stop()
		select {
		case <-t.C:
			w.pcancel()
		case <-delivered:
		}
	}()
	var executors sync.WaitGroup
	w.dispatchLoop(ctx, &executors)
	// Each executor posts its own result, so once they are all back every
	// leased job has been delivered (drain semantics); heartbeats kept
	// renewing our leases until it was.
	executors.Wait()
	close(delivered)
	hbCancel()
	<-hbDone
	// Detached from the run context on purpose — it is already canceled
	// by the time the worker says goodbye. The post context stands in:
	// alive on every normal drain, already cut when the drain grace
	// expired against a dead coordinator (the goodbye would only stall).
	w.deregister(w.pctx)
	// A mid-run permanent rejection (the coordinator restarted with a
	// different build) is a failure, not a drain: the caller must see it
	// and exit non-zero rather than report a clean shutdown.
	w.mu.Lock()
	fatal := w.fatal
	w.mu.Unlock()
	if fatal != nil && ctx.Err() == nil {
		return fatal
	}
	return nil
}

// reregister rejoins the coordinator, but only if staleID is still our
// identity — when several loops observe the same 404, the first rejoin
// wins and the rest are no-ops.
func (w *Worker) reregister(ctx context.Context, staleID string) error {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if w.ID() != staleID {
		return nil
	}
	return w.register(ctx)
}

// register announces the worker, retrying on the policy's backoff
// schedule (unlimited attempts) until it succeeds, the coordinator
// rejects it permanently (build mismatch), or ctx ends.
func (w *Worker) register(ctx context.Context) error {
	pol := w.retry
	pol.MaxAttempts = 0 // a worker with nothing to join retries until told to stop
	err := pol.Do(ctx, func(actx context.Context) error {
		err := w.registerOnce(actx)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, errRejected):
			return resilience.Permanent(err)
		}
		w.logf("dist: register against %s failed (%v); retrying", w.base, err)
		return err
	})
	if err != nil && !errors.Is(err, errRejected) {
		return fmt.Errorf("dist: worker never registered with %s: %w", w.base, err)
	}
	return err
}

// errRejected marks a registration the coordinator refused outright.
var errRejected = errors.New("registration rejected")

func (w *Worker) registerOnce(ctx context.Context) error {
	resp, err := w.postJSON(ctx, "/v1/workers", RegisterRequest{Name: w.opts.Name, Slots: w.opts.Slots, Build: w.opts.Build})
	if err != nil {
		return err
	}
	defer drainBody(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to decode
	case http.StatusConflict:
		var apiErr struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("%w by %s: %s", errRejected, w.base, apiErr.Error)
	default:
		return fmt.Errorf("register against %s: status %d", w.base, resp.StatusCode)
	}
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		return err
	}
	w.mu.Lock()
	w.id = reg.WorkerID
	w.leaseTTL = time.Duration(reg.LeaseTTLMS) * time.Millisecond
	w.pollWait = time.Duration(reg.PollWaitMS) * time.Millisecond
	if w.warm.Snapshots == nil && reg.CacheEnabled {
		// Warmup checkpoints ride the coordinator's content-addressed
		// endpoint; snapshot.Key's "snap:" prefix routes them to its
		// byte-typed snapshot tiers.
		w.warm.Snapshots = snapshot.NewStore(cache.NewRemote[[]byte](w.base, w.client).WithContext(w.run))
	}
	w.mu.Unlock()
	w.logf("dist: registered with %s as %s (%d slots)", w.base, reg.WorkerID, w.opts.Slots)
	return nil
}

// deregisterTimeout bounds the goodbye call: shutdown must not hang on a
// coordinator that is itself going away.
const deregisterTimeout = 5 * time.Second

func (w *Worker) deregister(ctx context.Context) {
	id := w.ID()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, deregisterTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.base+"/v1/workers/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := w.client.Do(req); err == nil {
		drainBody(resp.Body)
	}
}

// heartbeatLoop renews the worker's lease at a third of its TTL. The
// cadence is recomputed every beat: a re-registration (coordinator
// restart) may have negotiated a different — possibly much shorter —
// lease TTL, and beating at the old pace would let the new lease expire
// between heartbeats.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		interval := w.leaseTTL / 3
		w.mu.Unlock()
		if interval <= 0 {
			interval = time.Second
		}
		if !resilience.Sleep(ctx, interval) {
			return
		}
		id := w.ID()
		resp, err := w.postJSON(ctx, "/v1/workers/"+id+"/heartbeat", struct{}{})
		if err != nil {
			continue
		}
		code := resp.StatusCode
		drainBody(resp.Body)
		if code == http.StatusNotFound {
			if w.draining.Load() {
				// The coordinator forgot us and we are shutting down:
				// re-registering would advertise slots no poll loop will
				// ever serve — phantom capacity that strands queued jobs.
				// Our leases are already lost; nothing left to renew.
				return
			}
			// The coordinator forgot us (restart, expiry); rejoin.
			w.reregister(ctx, id)
		}
	}
}

// dispatchLoop is the worker's scheduler: one long-poll loop that asks
// for as many jobs as it has free slots and starts each leased job on its
// own executor. A poll that finds several slots free leases several jobs
// in one round trip, and a worker never holds a job it cannot start: the
// rest of the backlog stays in the coordinator's queue, where the
// autoscale signal counts it and an idle local slot can take it.
func (w *Worker) dispatchLoop(ctx context.Context, executors *sync.WaitGroup) {
	slots := make(chan struct{}, w.opts.Slots)
	for i := 0; i < w.opts.Slots; i++ {
		slots <- struct{}{}
	}
	// pollFails ramps the backoff between failed polls (capped
	// exponential with jitter, reset on any answer) so a down
	// coordinator is probed gently while a transient blip costs little.
	var pollFails int
	for {
		// Wait for at least one free slot, then sweep up the rest without
		// blocking.
		select {
		case <-ctx.Done():
			return
		case <-slots:
		}
		free := 1
	grab:
		for free < w.opts.Slots {
			select {
			case <-slots:
				free++
			default:
				break grab
			}
		}
		id := w.ID()
		batch, code, err := w.poll(ctx, id, free)
		if err == nil && code != 0 {
			pollFails = 0 // any coordinator answer resets the backoff ramp
		}
		// Execute even when shutdown raced the poll: the coordinator leased
		// these jobs (at most free of them) to us the moment it answered,
		// so dropping them here would strand the leases until expiry — an
		// accepted job is always executed and delivered (drain semantics).
		for _, asg := range batch.Assignments {
			executors.Add(1)
			go func() {
				defer executors.Done()
				w.execute(ctx, asg)
				slots <- struct{}{}
			}()
		}
		for i := len(batch.Assignments); i < free; i++ {
			slots <- struct{}{}
		}
		switch {
		case err == nil && code == http.StatusOK:
			// Batch started above; poll again once a slot frees.
		case ctx.Err() != nil:
			return
		case err != nil:
			pollFails++
			resilience.Sleep(ctx, w.retry.Delay(pollFails))
		case code == http.StatusNotFound:
			if err := w.reregister(ctx, id); err != nil {
				if errors.Is(err, errRejected) {
					w.setFatal(err)
				}
				return
			}
		case code == http.StatusNoContent:
			// No work inside the poll window; ask again.
		default:
			pollFails++
			resilience.Sleep(ctx, w.retry.Delay(pollFails))
		}
	}
}

// poll asks for up to max jobs. The request context is the worker's —
// shutdown aborts a parked long poll immediately — bounded at the
// coordinator's poll wait plus a margin so a lost connection cannot park
// the dispatcher forever, however large PollWait is configured.
func (w *Worker) poll(ctx context.Context, id string, max int) (Batch, int, error) {
	w.mu.Lock()
	wait := w.pollWait
	w.mu.Unlock()
	pctx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	defer cancel()
	body, err := json.Marshal(PollRequest{WorkerID: id, Max: max})
	if err != nil {
		return Batch{}, 0, err
	}
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, w.base+"/v1/work/next", bytes.NewReader(body))
	if err != nil {
		return Batch{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.pollClient.Do(req)
	if err != nil {
		return Batch{}, 0, err
	}
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return Batch{}, resp.StatusCode, nil
	}
	var batch Batch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		return Batch{}, 0, err
	}
	return batch, http.StatusOK, nil
}

// execute runs one leased job and posts its result. The simulation
// deliberately ignores the run context — a job accepted before shutdown
// is finished and delivered (drain semantics) — while its interval
// snapshots and checkpoint traffic ride it, so a draining worker neither
// streams telemetry nor waits on a slow cache.
func (w *Worker) execute(ctx context.Context, asg Assignment) {
	var onSnap func(smt.Snapshot)
	if asg.Job.Interval > 0 {
		onSnap = func(s smt.Snapshot) { w.postSnapshot(ctx, asg, s) }
	}
	w.postResult(asg.TaskID, w.exec()(asg.Job, onSnap))
}

// postResult delivers one result on the retry policy. Transport errors,
// 5xx answers, and garbled acks retry with backoff; any other definitive
// coordinator response ends the attempt (a discarded result means the
// job was requeued or cancelled, and re-posting cannot change that).
// Only accepted results count toward JobsDone: the drain exit message
// must not claim jobs whose results were actually requeued elsewhere.
//
// Posts ride the worker's post context, not the run context — drain
// still delivers — but a drain stuck past DrainGrace cuts it, so a dead
// coordinator cannot stall a SIGTERM'd worker behind client timeouts.
//
// When every attempt fails at the transport, the worker deregisters
// itself: its own heartbeats would otherwise keep renewing the
// undelivered job's lease forever, wedging the sweep — leaving the
// registry requeues every lease we hold, and the next poll's 404
// re-registers us under a fresh identity. If the network is down
// entirely, the deregister fails too, but then heartbeats are failing
// as well and the leases expire on their own.
func (w *Worker) postResult(taskID string, res smt.Results) {
	body := ResultsRequest{WorkerID: w.ID(), TaskID: taskID, Results: res}
	err := w.retry.Do(w.pctx, func(ctx context.Context) error {
		resp, err := w.postJSON(ctx, "/v1/work/result", body)
		if err != nil {
			return err
		}
		defer drainBody(resp.Body)
		if resp.StatusCode >= http.StatusInternalServerError {
			return fmt.Errorf("result post answered %d", resp.StatusCode)
		}
		if resp.StatusCode != http.StatusOK {
			return nil // definitive refusal; re-posting cannot change it
		}
		var ack ResultsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			// The coordinator processed the post but the ack was lost in
			// transit; re-posting is safe (delivery deduplicates).
			return fmt.Errorf("result ack garbled: %w", err)
		}
		if ack.Accepted {
			w.mu.Lock()
			w.done++
			w.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		w.logf("dist: result post for task %s never landed; leaving the registry so its lease requeues", taskID)
		w.deregister(w.pctx)
	}
}

// postSnapshot streams one interval snapshot; best-effort with one
// retry — snapshots are progress telemetry and lease renewal, so a lost
// one costs visibility, never correctness. A draining worker drops them
// (ctx is the run context), exactly as it drops cache fills.
func (w *Worker) postSnapshot(ctx context.Context, asg Assignment, s smt.Snapshot) {
	pol := w.retry
	pol.MaxAttempts = 2
	pol.Do(ctx, func(actx context.Context) error {
		resp, err := w.postJSON(actx, "/v1/work/snapshot",
			SnapshotRequest{WorkerID: w.ID(), TaskID: asg.TaskID, Snapshot: s})
		if err != nil {
			return err
		}
		drainBody(resp.Body)
		if resp.StatusCode >= http.StatusInternalServerError {
			return fmt.Errorf("snapshot post answered %d", resp.StatusCode)
		}
		return nil
	})
}

// postJSON issues a POST with a JSON body. Long polls pass the worker
// context so shutdown interrupts them; posts of finished work pass the
// post context so drain still delivers.
func (w *Worker) postJSON(ctx context.Context, path string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.client.Do(req)
}

func drainBody(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}
