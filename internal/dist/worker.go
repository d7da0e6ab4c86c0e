package dist

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/resilience"
	"repro/smt"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name labels the worker in the coordinator's registry; default
	// "worker". The worker's id is its own random choice, not an option.
	Name string
	// Slots is how many simulations run concurrently, and how many jobs
	// the worker leases at most; <=0 means runtime.GOMAXPROCS(0).
	Slots int
	// Exec runs one job payload; default SimulateJob under Warm.
	Exec Exec
	// Warm is the default executor's acceleration environment: warmup
	// checkpoints and per-context trace replay. When Warm.Snapshots is nil,
	// checkpoints are shared through the coordinator's /v1/cache/{key}
	// under the run context (a coordinator without one answers misses):
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
	// Backoff base doubling to 10x Backoff, jitter seeded from the worker's
	// random id so a fleet's retries do not synchronize.
	Backoff time.Duration
	// DrainGrace bounds how long a draining worker keeps retrying result
	// delivery against an unresponsive coordinator before abandoning the
	// posts and deregistering; default 15s. Without the bound, a dead
	// coordinator would stall a SIGTERM'd worker for the full client
	// timeout times every retry.
	DrainGrace time.Duration
	// Build is the worker's binary identity sent in every beat; defaults
	// to BuildID().
	Build string
	// Logf receives worker events; nil discards them.
	Logf func(format string, args ...any)
}

// Worker leases only jobs it can start at once, simulates each with the
// engine's canonical kernel, and posts each result as it finishes.
// Cancelling the context passed to Run drains the worker: it beats zero
// slots, in-flight simulations run to completion and post their results,
// then the worker deregisters — a SIGTERM'd node never strands a lease
// until expiry.
type Worker struct {
	opts       WorkerOptions
	id         string // 16 hex digits, chosen in NewWorker
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

	mu       sync.Mutex
	leaseTTL time.Duration
	pollWait time.Duration
	held     map[string]bool // task ids leased to us whose result post has not returned
	done     int64           // jobs whose results the coordinator accepted
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
	// The worker names itself. crypto/rand.Read does not fail on the
	// supported platforms (Go 1.24 crashes rather than return its error).
	var id [8]byte
	rand.Read(id[:])
	retry := resilience.Policy{
		MaxAttempts: 3,
		BaseDelay:   opts.Backoff,
		MaxDelay:    10 * opts.Backoff,
		Seed:        binary.LittleEndian.Uint64(id[:]),
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
		id:         hex.EncodeToString(id[:]),
		base:       strings.TrimRight(opts.Coordinator, "/"),
		client:     client,
		pollClient: pollClient,
		logf:       logf,
		retry:      retry,
		pctx:       pctx,
		pcancel:    pcancel,
		held:       map[string]bool{},
	}
}

// JobsDone returns how many jobs this worker has completed.
func (w *Worker) JobsDone() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

// Run joins the coordinator and serves jobs until ctx is cancelled, then
// drains: running simulations finish and post results before Run
// deregisters and returns. The returned error is non-nil only when the
// worker never joined or the coordinator refused it (build mismatch).
func (w *Worker) Run(ctx context.Context) error {
	exec := w.opts.Exec
	if exec == nil {
		warm := w.opts.Warm
		if warm.Snapshots == nil {
			// Warmup checkpoints ride the coordinator's content-addressed
			// endpoint; the keys' "snap:" prefix routes them to its
			// counting checkpoint store, which is where they are counted.
			// Bound to ctx, a drain's peeks miss and its fills drop.
			warm.Snapshots = cache.NewRemote[[]byte](w.base, w.client).WithContext(ctx)
		}
		exec = SimulateJob(warm)
	}
	if err := w.join(ctx); err != nil {
		return err
	}
	// Beats outlive ctx: they must keep renewing our leases while the
	// drain finishes in-flight simulations, or a job longer than the lease
	// TTL would be declared dead — and re-simulated elsewhere — in the
	// middle of a graceful shutdown. Once ctx ends they offer zero slots.
	beatCtx, beatCancel := context.WithCancel(context.Background())
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		w.beatLoop(beatCtx, ctx)
	}()
	delivered := make(chan struct{})
	go func() {
		<-ctx.Done()
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
	err := w.dispatchLoop(ctx, exec, &executors)
	// Each executor posts its own result, so once they are all back every
	// leased job has been delivered (drain semantics); beats kept renewing
	// our leases until it was.
	executors.Wait()
	close(delivered)
	beatCancel()
	<-beatDone
	// Detached from the run context on purpose — it is already canceled
	// by the time the worker says goodbye. The post context stands in:
	// alive on every normal drain, already cut when the drain grace
	// expired against a dead coordinator (the goodbye would only stall).
	w.deregister(w.pctx)
	// A mid-run refusal (the coordinator restarted with a different build)
	// is a failure, not a drain: the caller must see it and exit non-zero
	// rather than report a clean shutdown.
	if ctx.Err() != nil {
		return nil
	}
	return err
}

// join beats on the policy's backoff schedule (unlimited attempts) until
// the coordinator takes the beat, refuses it (build mismatch, or a slot
// count or id out of range), or ctx ends.
func (w *Worker) join(ctx context.Context) error {
	pol := w.retry
	pol.MaxAttempts = 0 // a worker with nothing to join retries until told to stop
	err := pol.Do(ctx, func(actx context.Context) error {
		err := w.beat(actx, w.opts.Slots)
		if errors.Is(err, errRejected) {
			return resilience.Permanent(err)
		}
		if err != nil {
			w.logf("dist: joining %s failed (%v); retrying", w.base, err)
		}
		return err
	})
	if err != nil && !errors.Is(err, errRejected) {
		return fmt.Errorf("dist: worker never joined %s: %w", w.base, err)
	}
	if err == nil {
		w.logf("dist: joined %s as %s (%d slots)", w.base, w.id, w.opts.Slots)
	}
	return err
}

// errRejected marks a beat the coordinator refused outright.
var errRejected = errors.New("beat rejected")

// beat sends the worker's state once: its name, build, the slots it
// offers and the leases it holds, and adopts the coordinator's timings.
func (w *Worker) beat(ctx context.Context, slots int) error {
	b := Beat{Name: w.opts.Name, Slots: slots, Build: w.opts.Build}
	w.mu.Lock()
	for task := range w.held {
		b.Tasks = append(b.Tasks, task)
	}
	w.mu.Unlock()
	resp, err := w.send(ctx, http.MethodPut, "/v1/workers/"+w.id, b)
	if err != nil {
		return err
	}
	defer drainBody(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to decode
	case http.StatusConflict, http.StatusBadRequest:
		var apiErr struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("%w by %s: %s", errRejected, w.base, apiErr.Error)
	default:
		return fmt.Errorf("beat to %s: status %d", w.base, resp.StatusCode)
	}
	var br BeatResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return err
	}
	w.mu.Lock()
	w.leaseTTL = time.Duration(br.LeaseTTLMS) * time.Millisecond
	w.pollWait = time.Duration(br.PollWaitMS) * time.Millisecond
	w.mu.Unlock()
	return nil
}

// deregisterTimeout bounds the goodbye call: shutdown must not hang on a
// coordinator that is itself going away.
const deregisterTimeout = 5 * time.Second

func (w *Worker) deregister(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, deregisterTimeout)
	defer cancel()
	if resp, err := w.send(ctx, http.MethodDelete, "/v1/workers/"+w.id, nil); err == nil {
		drainBody(resp.Body)
	}
}

// beatLoop beats at a third of the lease TTL, offering zero slots
// once run has ended. The cadence is recomputed every beat: a coordinator
// restart may have brought a different — possibly much shorter — lease
// TTL, and beating at the old pace would let the new lease expire between
// beats. A beat needs no answer handled: one that reaches a coordinator
// that forgot us rejoins us (or, draining, is a 404 with nothing left to
// renew), and a refusal surfaces through the poll loop's join.
func (w *Worker) beatLoop(ctx, run context.Context) {
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
		slots := w.opts.Slots
		if run.Err() != nil {
			slots = 0
		}
		w.beat(ctx, slots)
	}
}

// dispatchLoop is the worker's scheduler: one long-poll loop that asks
// for as many jobs as it has free slots and starts each leased job on its
// own executor. A poll that finds several slots free leases several jobs
// in one round trip, and a worker never holds a job it cannot start: the
// rest of the backlog stays in the coordinator's queue, where the
// autoscale signal counts it and an idle local slot can take it.
// It returns the error of a rejoin that failed: a refusal, or ctx ending.
func (w *Worker) dispatchLoop(ctx context.Context, exec Exec, executors *sync.WaitGroup) error {
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
			return nil
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
		batch, code, err := w.poll(ctx, free)
		if err == nil && code != 0 {
			pollFails = 0 // any coordinator answer resets the backoff ramp
		}
		// Execute even when shutdown raced the poll: the coordinator leased
		// these jobs (at most free of them) to us the moment it answered,
		// so dropping them here would strand the leases until expiry — an
		// accepted job is always executed and delivered (drain semantics).
		w.mu.Lock()
		for _, asg := range batch.Assignments {
			w.held[asg.TaskID] = true
		}
		w.mu.Unlock()
		for _, asg := range batch.Assignments {
			executors.Add(1)
			go func() {
				defer executors.Done()
				w.execute(ctx, exec, asg)
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
			return nil
		case err != nil:
			pollFails++
			resilience.Sleep(ctx, w.retry.Delay(pollFails))
		case code == http.StatusNotFound:
			// The coordinator forgot us (restart, expiry): rejoin.
			if err := w.join(ctx); err != nil {
				return err
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
func (w *Worker) poll(ctx context.Context, max int) (Batch, int, error) {
	w.mu.Lock()
	wait := w.pollWait
	w.mu.Unlock()
	pctx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	defer cancel()
	body, err := json.Marshal(PollRequest{WorkerID: w.id, Max: max})
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
func (w *Worker) execute(ctx context.Context, exec Exec, asg Assignment) {
	var onSnap func(smt.Snapshot)
	if asg.Job.Interval > 0 {
		onSnap = func(s smt.Snapshot) { w.postSnapshot(ctx, asg, s) }
	}
	w.postResult(asg.TaskID, exec(asg.Job, onSnap))
	w.mu.Lock()
	delete(w.held, asg.TaskID)
	w.mu.Unlock()
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
// itself rather than let the undelivered job wait out its lease: leaving
// the registry requeues every lease we hold, and the next beat or poll
// rejoins us. If the network is down entirely, the deregister fails too,
// but then beats are failing as well and the leases expire on their own.
func (w *Worker) postResult(taskID string, res smt.Results) {
	body := ResultsRequest{WorkerID: w.id, TaskID: taskID, Results: res}
	err := w.retry.Do(w.pctx, func(ctx context.Context) error {
		resp, err := w.send(ctx, http.MethodPost, "/v1/work/result", body)
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
// retry — snapshots are progress telemetry, so a lost one costs
// visibility, never correctness. A draining worker drops them
// (ctx is the run context), exactly as it drops cache fills.
func (w *Worker) postSnapshot(ctx context.Context, asg Assignment, s smt.Snapshot) {
	pol := w.retry
	pol.MaxAttempts = 2
	pol.Do(ctx, func(actx context.Context) error {
		resp, err := w.send(actx, http.MethodPost, "/v1/work/snapshot",
			SnapshotRequest{WorkerID: w.id, TaskID: asg.TaskID, Snapshot: s})
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

// send issues one coordinator call with v as its JSON body (none when v
// is nil). Posts of finished work pass the post context so drain still
// delivers.
func (w *Worker) send(ctx context.Context, method, path string, v any) (*http.Response, error) {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
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
