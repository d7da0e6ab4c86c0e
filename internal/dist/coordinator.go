package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/resilience"
	"repro/smt"
)

// Per-endpoint request body caps, so a single request cannot balloon the
// coordinator's heap. Control-plane messages (register, poll, heartbeat)
// are tiny; a snapshot is one interval's counters; a result post carries
// one job's full smt.Results.
const (
	maxControlBody  = 64 << 10 // register / poll
	maxSnapshotBody = 1 << 20  // one interval snapshot
	maxResultsBody  = 64 << 10 // one job's results, ~1 KiB even at 64 threads
)

// Options configures a Coordinator. The zero value works: sensible
// timings, no local slots (every job waits for a worker), no logging.
type Options struct {
	// Exec runs the jobs the local slots take. Defaults to
	// SimulateJob(exp.WarmEnv{}) — the same kernel workers run.
	Exec Exec
	// LocalSlots is how many jobs the coordinator simulates in-process at
	// once, across every sweep dispatching through it (the smtd service
	// sizes it from -workers). Each slot leases from the queue worker
	// polls lease from. Zero runs nothing in-process.
	LocalSlots int
	// LeaseTTL is how long a worker may go silent — no heartbeat, poll,
	// snapshot, or result — before it is declared dead and its leased
	// jobs are requeued. Default 15s.
	LeaseTTL time.Duration
	// PollWait is how long /v1/work/next may hold a long poll before
	// answering 204. Default 2s.
	PollWait time.Duration
	// SweepEvery is the lease janitor's cadence. Default LeaseTTL/4.
	SweepEvery time.Duration
	// MaxAttempts caps how many workers a job is leased to; past it only
	// the local slots take the job — a circuit breaker against a job that
	// kills every worker it lands on. With no local slots the job stays in
	// the shared queue. Default 3.
	MaxAttempts int
	// ServesCache is advertised to registering workers: the coordinator's
	// HTTP surface also exposes GET/PUT /v1/cache/{key}, so workers share
	// warmup checkpoints through it.
	ServesCache bool
	// Build is the coordinator's binary identity; defaults to BuildID().
	// Registration rejects workers whose (known) build differs — a
	// version-skewed worker would silently break byte-identity and poison
	// the shared content-addressed cache.
	Build string
	// Logf receives scheduler events (worker joins/deaths, requeues).
	// Nil discards them.
	Logf func(format string, args ...any)
	// BreakerStats, when non-nil, supplies the host's per-peer circuit
	// breaker snapshots for Status.Breakers — the coordinator itself has
	// no outbound peers; smtd passes the federation layer's set here so
	// /v1/workers surfaces them.
	BreakerStats func() []resilience.BreakerSnapshot
}

func (o Options) withDefaults() Options {
	if o.Exec == nil {
		o.Exec = SimulateJob(exp.WarmEnv{})
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.PollWait <= 0 {
		o.PollWait = 2 * time.Second
	}
	if o.SweepEvery <= 0 {
		o.SweepEvery = o.LeaseTTL / 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Build == "" {
		o.Build = BuildID()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Coordinator runs jobs on registered workers and on its own local slots
// and implements exp.Dispatcher, so an exp.Runner plugs it in as its
// execution backend. Every dispatched job enters one FIFO queue, and a
// worker's poll and a free local slot lease from it alike, so no slot
// idles while a job waits. A job whose worker dies is requeued.
// Backpressure is inherited from the runner: each of the runner's pool
// goroutines dispatches one job and blocks for its result, so at most
// pool-size jobs are in flight per sweep.
type Coordinator struct {
	opts   Options
	closed chan struct{}

	mu         sync.Mutex
	workers    map[string]*workerState
	pending    []*task          // FIFO; requeues go to the front
	localOnly  []*task          // out of remote attempts; only local slots take these
	tasks      map[string]*task // every undelivered dispatched task
	wake       chan struct{}    // closed and replaced whenever a queue grows
	nextWorker int64
	nextTask   int64

	dispatched int64
	remoteDone int64
	localDone  int64
	requeues   int64
	leases     int64         // assignments ever granted to workers
	leaseWait  time.Duration // total pending-queue wait across granted leases
}

type workerState struct {
	id        string
	name      string
	slots     int
	lastSeen  time.Time
	running   map[string]*task
	completed int64
}

// task is one dispatched job waiting for a result.
type task struct {
	id      string
	payload JobPayload
	onSnap  func(smt.Snapshot)

	attempts   int       // remote leases granted so far
	assignedTo string    // worker id; "" while queued or on a local slot
	enqueued   time.Time // when the task last entered a queue
	deadline   time.Time
	done       bool
	cancelled  bool
	result     chan smt.Results // buffered 1; sent exactly once
}

// NewCoordinator builds a coordinator and starts its lease janitor and
// local slots; call Close to stop them.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		closed:  make(chan struct{}),
		workers: map[string]*workerState{},
		tasks:   map[string]*task{},
		wake:    make(chan struct{}),
	}
	go c.janitor()
	for i := 0; i < c.opts.LocalSlots; i++ {
		go c.localSlot()
	}
	return c
}

// Close stops the lease janitor, releases parked long-polls and stops the
// local slots, each once the queue has nothing left for it. Dispatch must
// not be called after Close.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
}

// Handle registers the coordinator's worker-facing routes on mux.
func (c *Coordinator) Handle(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/work/next", c.handlePoll)
	mux.HandleFunc("POST /v1/work/result", c.handleResult)
	mux.HandleFunc("POST /v1/work/snapshot", c.handleSnapshot)
}

// Dispatch implements exp.Dispatcher: derive the job's wire payload,
// queue it for the next free worker or local slot, and block until its
// results arrive, the job's lease machinery having survived any worker
// deaths in between.
func (c *Coordinator) Dispatch(ctx context.Context, j exp.Job, o exp.Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
	o = o.Normalized()
	p := JobPayload{
		Config:   j.Spec.Config,
		Run:      j.Run,
		Seed:     exp.JobSeed(o.Seed, j.Run),
		Warmup:   o.Warmup,
		Measure:  o.Measure,
		Interval: interval,
	}
	t := &task{
		payload: p,
		onSnap:  onSnap,
		result:  make(chan smt.Results, 1),
	}
	c.mu.Lock()
	c.dispatched++
	c.nextTask++
	t.id = fmt.Sprintf("t%d", c.nextTask)
	t.enqueued = time.Now()
	c.tasks[t.id] = t
	c.pending = append(c.pending, t)
	c.wakeLocked()
	c.mu.Unlock()

	select {
	case res := <-t.result:
		return res, nil
	case <-ctx.Done():
		if c.drop(t) {
			// A delivery committed before the cancel took hold; its send
			// into the buffered channel is imminent, so take it.
			return <-t.result, nil
		}
		return smt.Results{}, ctx.Err()
	}
}

// Capacity returns the number of simulation slots live workers offer.
// Sweep schedulers use it to size their dispatch pools.
func (c *Coordinator) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacityLocked()
}

func (c *Coordinator) capacityLocked() int {
	n := 0
	for _, w := range c.workers {
		n += w.slots
	}
	return n
}

// pendingLocked counts live queued tasks, skipping done/cancelled
// entries that drop() leaves behind for lazy removal — a cancelled
// sweep's debris must not read as backlog.
func (c *Coordinator) pendingLocked() int {
	n := 0
	for _, t := range c.pending {
		if !t.done && !t.cancelled {
			n++
		}
	}
	return n
}

// Stats snapshots the scheduler for observability and tests.
func (c *Coordinator) Stats() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Workers:               make([]WorkerInfo, 0, len(c.workers)),
		Capacity:              c.capacityLocked(),
		Pending:               c.pendingLocked(),
		Dispatched:            c.dispatched,
		RemoteDone:            c.remoteDone,
		LocalDone:             c.localDone,
		Requeues:              c.requeues,
		Leases:                c.leases,
		LeaseWaitSecondsTotal: c.leaseWait.Seconds(),
	}
	for _, t := range c.tasks {
		if t.assignedTo != "" && !t.done && !t.cancelled {
			st.Assigned++
		}
	}
	// The autoscale signal: queued work measured against what the fleet
	// can absorb, in units the deployment layer acts on (slots to add).
	free := st.Capacity - st.Assigned
	if free < 0 {
		free = 0
	}
	wanted := st.Pending - free
	if wanted < 0 {
		wanted = 0
	}
	st.Autoscale = Autoscale{
		QueuedJobs:  st.Pending,
		Capacity:    st.Capacity,
		FreeSlots:   free,
		WantedSlots: wanted,
	}
	if st.Capacity > 0 {
		st.Autoscale.Saturation = float64(st.Assigned+st.Pending) / float64(st.Capacity)
	}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerInfo{
			ID:        w.id,
			Name:      w.name,
			Slots:     w.slots,
			Running:   len(w.running),
			Completed: w.completed,
			LastSeen:  w.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	if c.opts.BreakerStats != nil {
		st.Breakers = c.opts.BreakerStats()
	}
	return st
}

// wakeLocked releases every parked long-poll and idle local slot so it
// re-checks the queues.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// popLocked takes the next live task off the front of q, discarding
// finished and cancelled ones lazily.
func popLocked(q *[]*task) *task {
	for len(*q) > 0 {
		t := (*q)[0]
		*q = (*q)[1:]
		if !t.done && !t.cancelled {
			return t
		}
	}
	return nil
}

// localSlot is one in-process simulation slot. It leases the way a
// worker's poll does, from the same queue, after the jobs only it may
// take, and parks on wake while both are empty, until Close.
func (c *Coordinator) localSlot() {
	for {
		c.mu.Lock()
		t := popLocked(&c.localOnly)
		if t == nil {
			t = popLocked(&c.pending)
		}
		wake := c.wake
		c.mu.Unlock()
		if t != nil {
			c.deliver(t, c.opts.Exec(t.payload, t.onSnap), "")
			continue
		}
		select {
		case <-wake:
		case <-c.closed:
			return
		}
	}
}

// deliver completes a task exactly once. workerID is "" for local
// execution. It reports whether this call won the delivery.
func (c *Coordinator) deliver(t *task, res smt.Results, workerID string) bool {
	c.mu.Lock()
	if t.done || t.cancelled {
		c.mu.Unlock()
		return false
	}
	t.done = true
	delete(c.tasks, t.id)
	if w := c.workers[t.assignedTo]; w != nil {
		delete(w.running, t.id)
	}
	if workerID != "" {
		if w := c.workers[workerID]; w != nil {
			w.completed++
		}
		c.remoteDone++
	} else {
		c.localDone++
	}
	c.mu.Unlock()
	t.result <- res
	return true
}

// drop abandons a cancelled dispatch. It reports true when a delivery
// already committed (the result is, or is about to be, in the channel).
func (c *Coordinator) drop(t *task) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return true
	}
	t.cancelled = true
	delete(c.tasks, t.id)
	if w := c.workers[t.assignedTo]; w != nil {
		delete(w.running, t.id)
	}
	return false
}

// requeueLocked returns a leased task to the queue after its worker died
// or its lease expired. A task out of remote attempts goes to the local
// slots alone when there are any.
func (c *Coordinator) requeueLocked(t *task) {
	if t.done || t.cancelled {
		return
	}
	if w := c.workers[t.assignedTo]; w != nil {
		delete(w.running, t.id)
	}
	t.assignedTo = ""
	t.enqueued = time.Now()
	c.requeues++
	if t.attempts >= c.opts.MaxAttempts && c.opts.LocalSlots > 0 {
		c.opts.Logf("dist: job %s left to the local slots after %d remote attempt(s)", t.id, t.attempts)
		c.localOnly = append(c.localOnly, t)
	} else {
		c.pending = append([]*task{t}, c.pending...)
	}
	c.wakeLocked()
}

// janitor periodically expires silent workers and stale leases.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.opts.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case now := <-tick.C:
			c.expire(now)
		}
	}
}

// expire removes workers silent for longer than the lease TTL and
// requeues their jobs, plus any individually expired task leases.
func (c *Coordinator) expire(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stale := map[*task]bool{}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.opts.LeaseTTL {
			c.opts.Logf("dist: worker %s (%s) silent for %v; removing and requeueing %d job(s)",
				id, w.name, now.Sub(w.lastSeen).Round(time.Millisecond), len(w.running))
			for _, t := range w.running {
				stale[t] = true
			}
			delete(c.workers, id)
		}
	}
	for _, t := range c.tasks {
		if t.assignedTo != "" && !t.done && !t.cancelled && now.After(t.deadline) {
			stale[t] = true
		}
	}
	for t := range stale {
		c.requeueLocked(t)
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeInto(w, r, &req, maxControlBody) {
		return
	}
	if req.Slots <= 0 {
		httpError(w, http.StatusBadRequest, "slots %d must be positive", req.Slots)
		return
	}
	if req.Build != "" && c.opts.Build != "" && req.Build != c.opts.Build {
		httpError(w, http.StatusConflict,
			"worker build %q does not match coordinator build %q; distributed results must come from identical binaries",
			req.Build, c.opts.Build)
		return
	}
	c.mu.Lock()
	c.nextWorker++
	ws := &workerState{
		id:       fmt.Sprintf("w%d", c.nextWorker),
		name:     req.Name,
		slots:    req.Slots,
		lastSeen: time.Now(),
		running:  map[string]*task{},
	}
	c.workers[ws.id] = ws
	c.mu.Unlock()
	c.opts.Logf("dist: worker %s (%s) joined with %d slot(s)", ws.id, ws.name, ws.slots)
	httpJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:     ws.id,
		LeaseTTLMS:   c.opts.LeaseTTL.Milliseconds(),
		PollWaitMS:   c.opts.PollWait.Milliseconds(),
		Coordinator:  "smtd",
		CacheEnabled: c.opts.ServesCache,
	})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	ws, ok := c.workers[id]
	if ok {
		delete(c.workers, id)
		for _, t := range ws.running {
			c.requeueLocked(t)
		}
	}
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	c.opts.Logf("dist: worker %s (%s) left", ws.id, ws.name)
	httpJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := time.Now()
	c.mu.Lock()
	ws, ok := c.workers[id]
	if ok {
		ws.lastSeen = now
		for _, t := range ws.running {
			t.deadline = now.Add(c.opts.LeaseTTL)
		}
	}
	c.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown worker %q; re-register", id)
		return
	}
	httpJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	httpJSON(w, http.StatusOK, c.Stats())
}

// handlePoll long-polls for work: it answers immediately when the queue
// has any, leasing up to req.Max jobs in one response, otherwise parks
// until an enqueue, the poll-wait deadline, disconnect, or coordinator
// shutdown. Batching matters on small jobs: each job's HTTP hop is paid
// once per batch, not once per job.
func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decodeInto(w, r, &req, maxControlBody) {
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	deadline := time.Now().Add(c.opts.PollWait)
	for {
		now := time.Now()
		c.mu.Lock()
		ws, ok := c.workers[req.WorkerID]
		if !ok {
			c.mu.Unlock()
			httpError(w, http.StatusNotFound, "unknown worker %q; re-register", req.WorkerID)
			return
		}
		ws.lastSeen = now
		var batch Batch
		for len(batch.Assignments) < max {
			t := popLocked(&c.pending)
			if t == nil {
				break
			}
			t.assignedTo = ws.id
			t.attempts++
			t.deadline = now.Add(c.opts.LeaseTTL)
			c.leases++
			c.leaseWait += now.Sub(t.enqueued)
			ws.running[t.id] = t
			batch.Assignments = append(batch.Assignments, Assignment{TaskID: t.id, Job: t.payload})
		}
		if len(batch.Assignments) > 0 {
			c.mu.Unlock()
			httpJSON(w, http.StatusOK, batch)
			return
		}
		wake := c.wake
		c.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-c.closed:
			timer.Stop()
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// handleResult accepts one finished job. A stale result — its task
// cancelled, already completed by another worker or a local slot, or
// reassigned and finished elsewhere — is acknowledged and discarded:
// determinism makes every copy of a result interchangeable, and exactly
// one delivery per dispatch is guaranteed by deliver.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultsRequest
	if !decodeInto(w, r, &req, maxResultsBody) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if ws := c.workers[req.WorkerID]; ws != nil {
		ws.lastSeen = now
	}
	// Task ids are guessable; nobody can hold the result of a job that was
	// never leased out.
	t := c.tasks[req.TaskID]
	leased := t != nil && t.attempts > 0
	c.mu.Unlock()
	accepted := leased && c.deliver(t, req.Results, req.WorkerID)
	httpJSON(w, http.StatusOK, ResultsResponse{Accepted: accepted})
}

// handleSnapshot forwards one interval snapshot to the dispatching
// sweep's observer and renews the job's lease — a worker deep in a long
// simulation proves liveness by the snapshots themselves. Only the
// current assignee's snapshots are forwarded, so a presumed-dead worker
// that is still simulating cannot interleave with its replacement, and a
// queued job (assigned to nobody) takes none.
func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	if !decodeInto(w, r, &req, maxSnapshotBody) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if ws := c.workers[req.WorkerID]; ws != nil {
		ws.lastSeen = now
	}
	var onSnap func(smt.Snapshot)
	if t := c.tasks[req.TaskID]; t != nil && !t.done && !t.cancelled && t.assignedTo != "" && t.assignedTo == req.WorkerID {
		t.deadline = now.Add(c.opts.LeaseTTL)
		onSnap = t.onSnap
	}
	c.mu.Unlock()
	if onSnap != nil {
		onSnap(req.Snapshot)
	}
	httpJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// decodeInto decodes a JSON body capped at limit bytes. An over-limit
// body answers 413 rather than 400 so clients can tell "too large" apart
// from "your JSON is malformed".
func decodeInto(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "invalid body: %v", err)
		return false
	}
	return true
}

func httpJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
