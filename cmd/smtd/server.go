package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/snapshot"
	"repro/smt"
)

// Server is the simulation service: the experiment engine served over
// HTTP, backed by one content-addressed result cache shared by every
// sweep. Repeated or overlapping sweeps — many clients exploring the same
// fetch/issue-policy grids — reuse per-job results instead of
// re-simulating them, and determinism guarantees a cache hit returns
// exactly the bytes a fresh simulation would.
//
// Storage is cache.Tiered built twice — simulation results and warmup
// checkpoints — each a bounded memory LRU over a durable disk tier under
// -cache-dir. Sweeps consult the result cache through singleflight dedup
// and the checkpoint cache through a counting wrapper; distributed
// workers reach both through /v1/cache/{key}, split on the "snap:"
// prefix, so a worker's checkpoint traffic passes the same wrapper and
// every restore in the cluster is counted once, on /metrics.
type Server struct {
	workers   int                        // local simulation slots (resolved; > 0)
	results   *cache.Tiered[smt.Results] // result tiers
	snaps     *cache.Tiered[[]byte]      // warmup-checkpoint tiers
	flight    *cache.Flight[smt.Results] // results + in-flight dedup, what runners consult
	snapshots *snapshot.Store            // snaps + traffic counters, what runners and workers consult
	traces    *smt.TraceCache            // sweep-shared pre-decoded traces
	coord     *dist.Coordinator          // execution backend: one queue for local slots and remote workers
	plans     *cache.Store[*sweepPlan]   // request body digest -> everything derived from it, see sweepPlan

	mu         sync.Mutex
	sweeps     map[string]*sweep
	order      []string // submission order, for listing
	nextID     int
	maxHistory int  // finished sweeps retained; older ones are evicted
	draining   bool // shutdown in progress: no new sweeps accepted
	// Lifetime totals behind the smtd_sweep_*_total counters. Kept here,
	// not summed over s.sweeps, so history eviction cannot lower them.
	jobsDone  int64
	cacheHits int64
}

// sweep is one submitted sweep job and its progress.
type sweep struct {
	id         string
	experiment string
	opts       exp.Opts
	interval   int64  // snapshot cadence in cycles; 0 = job-granularity only
	state      string // "running", "done", "failed"
	totalJobs  int
	doneJobs   int
	cacheHits  int
	running    map[jobKey]*jobProgress // in-flight jobs' latest snapshots
	finished   map[jobKey]bool         // jobs already completed; late snapshots must not resurrect them
	resultJSON []byte                  // ExperimentResult.EncodeJSON bytes, once done
	errMsg     string
	cancel     context.CancelFunc
	done       chan struct{}
}

// jobProgress is the latest interval snapshot of one simulating job —
// sub-job-granularity observability for long-running sweeps. Rates (IPC)
// are cumulative over the job's measurement so far; DeltaIPC is the last
// interval alone, which surfaces phase behavior a cumulative average hides.
type jobProgress struct {
	Point     int     `json:"point"`
	Run       int     `json:"run"`
	Series    string  `json:"series"`
	Label     string  `json:"label"`
	Snapshots int     `json:"snapshots"`
	Cycles    int64   `json:"cycles"`
	Committed int64   `json:"committed"`
	IPC       float64 `json:"ipc"`
	DeltaIPC  float64 `json:"delta_ipc"`
}

// defaultMaxHistory bounds how many finished sweeps (with their encoded
// results) the service retains; running sweeps are never evicted.
const defaultMaxHistory = 64

// snapshotMemEntries bounds the in-memory snapshot LRU. A serialized warmed
// machine runs tens of KB deflated, so unlike results the memory tier must
// cap low; the disk tier (when configured) holds the long tail.
const snapshotMemEntries = 128

// The sweep-plan memo is bounded in entries and in what one entry may hold:
// a body longer than planMaxBody is not looked up (hashing it is work spent
// before any validation), and a plan of more than planMaxJobs jobs is not
// stored, because the expansion — one smt.Config per job — and the encoded
// result — about 1.5 KB per point — are what an entry retains, not the body.
// The paper grid (41 jobs, a 60 KB body) keeps about 100 KB; the worst
// admissible entry about 2 MB. Eviction is least-recently-used, one entry
// per insert past the cap.
const (
	planEntries = 64
	planMaxBody = 256 << 10
	planMaxJobs = 1024
)

// maxSweepJobs bounds one sweep's expansion (points x rotations). The
// paper's largest figure is a few hundred jobs; a request past this is a
// typo or abuse, and expanding it would exhaust memory before any job ran.
const maxSweepJobs = 1 << 16

// ServerOptions configures a Server.
type ServerOptions struct {
	// Workers is the local simulation concurrency (<=0 means GOMAXPROCS).
	Workers int
	// CacheSize bounds the in-memory result LRU (0 means unbounded).
	CacheSize int
	// CacheDir, when non-empty, adds a durable disk tier under the memory
	// LRU: results are written atomically as content-addressed files, and
	// checkpoints under its snapshots/ subdirectory. Nothing is read at
	// boot; a restart serves each prior entry from disk on its first
	// lookup instead of re-simulating.
	CacheDir string
}

// NewServer builds a service. The Workers bound applies to local
// simulation: however many sweeps run at once, at most that many
// simulations execute on this process. Registered remote workers (see
// internal/dist) add their own capacity on top. The error is non-nil only
// when the durable cache directory cannot be created. Call
// Close when done with the server outside a process-lifetime context.
func NewServer(opts ServerOptions) (*Server, error) {
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		workers:    n,
		sweeps:     make(map[string]*sweep),
		maxHistory: defaultMaxHistory,
		plans:      cache.New[*sweepPlan](planEntries),
	}
	var err error
	if s.results, err = newTiered[smt.Results](opts.CacheSize, opts.CacheDir); err != nil {
		return nil, fmt.Errorf("durable cache: %w", err)
	}
	// Snapshots get their own directory under the cache dir: same
	// durability story (atomic content-addressed files, read on first
	// lookup, corrupt reads served as misses), different value type.
	snapDir := ""
	if opts.CacheDir != "" {
		snapDir = filepath.Join(opts.CacheDir, "snapshots")
	}
	if s.snaps, err = newTiered[[]byte](snapshotMemEntries, snapDir); err != nil {
		return nil, fmt.Errorf("durable snapshot cache: %w", err)
	}
	// In-flight dedup on top of the tiers: concurrent identical sweeps
	// compute each overlapping job once, the rest wait and take the hit.
	s.flight = cache.NewFlight(s.results)
	// No singleflight for snapshots: a duplicated warmup fill is idempotent
	// and rare (runners probe before warming), while a dedup barrier would
	// serialize unrelated sweeps behind one warmup.
	s.snapshots = snapshot.NewStore(s.snaps)
	s.traces = smt.NewTraceCache(0)
	// The coordinator is every sweep's execution backend. Its n local
	// slots and any workers that join lease from one queue, so smtd
	// simulates at most -workers jobs at once in-process across all
	// sweeps, and workers joining at runtime take jobs as soon as they
	// poll (a running sweep keeps its dispatch width fixed at
	// submission).
	s.coord = dist.NewCoordinator(dist.Options{
		LocalSlots: n,
		// The local slots run the same warm kernel the sweep runners use,
		// so jobs that land in-process still restore checkpoints and
		// replay traces.
		Exec: dist.SimulateJob(exp.WarmEnv{Snapshots: s.snapshots, Traces: s.traces}),
		// Worker joins, deaths and requeues go to the process log.
		Logf: log.Printf,
	})
	return s, nil
}

// newTiered builds a memory LRU of entries slots (0 = unbounded) over a
// disk tier rooted at dir, or memory only when dir is empty.
func newTiered[V any](entries int, dir string) (*cache.Tiered[V], error) {
	var disk *cache.Disk[V]
	if dir != "" {
		var err error
		if disk, err = cache.NewDisk[V](dir); err != nil {
			return nil, err
		}
	}
	return cache.NewTiered(cache.New[V](entries), disk), nil
}

// Close stops the coordinator's background lease janitor.
func (s *Server) Close() {
	s.coord.Close()
}

// Drain blocks until every sweep running when it was called has finished
// or ctx expires, returning how many were still running at timeout. The
// SIGTERM path uses it so in-flight sweeps complete before exit. Drain
// also stops sweep intake: the listener must stay open for distributed
// workers to deliver results, so new POST /v1/sweep submissions — which
// nothing would wait for and shutdown would kill mid-run — are refused
// with 503 instead of silently accepted.
func (s *Server) Drain(ctx context.Context) int {
	s.mu.Lock()
	s.draining = true
	var waits []chan struct{}
	for _, sw := range s.sweeps {
		if sw.state == "running" {
			waits = append(waits, sw.done)
		}
	}
	s.mu.Unlock()
	for i, ch := range waits {
		select {
		case <-ch:
		case <-ctx.Done():
			// Count what is actually still running: sweeps later in the
			// slice may have finished while this one was blocking.
			remaining := 0
			for _, ch := range waits[i:] {
				select {
				case <-ch:
				default:
					remaining++
				}
			}
			return remaining
		}
	}
	return 0
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	// Prometheus-style exposition of every tier and the scheduler; see
	// metrics.go.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Content-addressed peek/fill: workers share warmup checkpoints
	// ("snap:" keys) through it.
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	// Worker registry, long-poll work queue, snapshot/result ingestion.
	s.coord.Handle(mux)
	// Live profiling of a deployed service: CPU/heap/goroutine/block
	// profiles without a restart, the first tool to reach for when a
	// coordinator's sweeps slow down (`go tool pprof http://host/debug/pprof/profile`).
	registerPprof(mux)
	return mux
}

// registerPprof mounts net/http/pprof's handlers on mux (the package's
// side-effect registration only touches http.DefaultServeMux, which this
// service never serves). Deliberately method-agnostic, matching
// net/http/pprof's own registration: pprof clients POST to /symbol
// (legacy symbolz protocol), so a GET-only pattern would 405 them.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// versionInfo is the /v1/version payload: build identity via
// runtime/debug.ReadBuildInfo, so a deployed binary answers "what exactly
// is running here" without external bookkeeping.
type versionInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"vcs_revision,omitempty"`
	BuildTime string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	info := versionInfo{}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		info.Version = bi.Main.Version
		info.GoVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.Revision = kv.Value
			case "vcs.time":
				info.BuildTime = kv.Value
			case "vcs.modified":
				info.Modified = kv.Value == "true"
			}
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// Request body caps for the service's write endpoints. One smt.Results
// JSON is a few KB; a sweep request with a large inline grid still fits
// in single-digit MB. Anything past these is a bug or abuse, and
// buffering it would balloon the coordinator's heap.
const (
	maxCachePutBody = 8 << 20
	maxSweepBody    = 8 << 20
	// Snapshot fills carry a full serialized machine (base64 inside JSON),
	// which dwarfs a results object; cap them separately.
	maxSnapPutBody = 64 << 20
)

// handleCacheGet peeks one content-addressed entry, typically a worker's
// checkpoint probe before it warms a machine. The keyspace is split by
// prefix: "snap:" keys are warmup checkpoints (opaque bytes, through the
// counting store the local slots use), everything else is a result.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if key := r.PathValue("key"); strings.HasPrefix(key, exp.SnapshotKeyPrefix) {
		peek(w, s.snapshots, key, "snapshot")
	} else {
		peek(w, s.results, key, "result")
	}
}

// handleCachePut fills one content-addressed entry. Determinism makes
// fills idempotent: every honest writer of a key computes identical
// bytes. Like the rest of the API (sweep submission, cancellation,
// worker beats — a worker's self-chosen id and its result posts are
// equally unverified), this endpoint trusts its network: smtd is designed
// to run inside a trusted cluster, not on the open internet.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if key := r.PathValue("key"); strings.HasPrefix(key, exp.SnapshotKeyPrefix) {
		fill(w, r, s.snapshots, key, "snapshot", maxSnapPutBody)
	} else {
		fill(w, r, s.results, key, "result", maxCachePutBody)
	}
}

// peek answers GET /v1/cache/{key} from st: 404 on a miss.
func peek[V any](w http.ResponseWriter, st cache.Getter[V], key, what string) {
	v, ok := st.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached %s for %q", what, key)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// fill answers PUT /v1/cache/{key} into st: 204 once stored.
func fill[V any](w http.ResponseWriter, r *http.Request, st cache.Getter[V], key, what string, limit int64) {
	var v V
	if !decodeBody(w, r, &v, limit, what) {
		return
	}
	st.Put(key, v)
	w.WriteHeader(http.StatusNoContent)
}

// decodeBody decodes a JSON body capped at limit bytes, answering 413 on
// an oversized one and 400 on malformed JSON.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64, what string) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid %s body: %v", what, err)
		return false
	}
	return true
}

// experimentInfo is one registry entry as the API lists it.
type experimentInfo struct {
	Name   string `json:"name"`
	Title  string `json:"title"`
	Series int    `json:"series"`
	Points int    `json:"points"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	out := make([]experimentInfo, 0)
	for _, e := range exp.Experiments() {
		out = append(out, experimentInfo{
			Name:   e.Name,
			Title:  e.Title,
			Series: e.Shape.Series,
			Points: e.Shape.Points,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// gridPoint is one inline-grid cell of a sweep request. Config, when
// present, is a partial smt.Config overlaid on smt.DefaultConfig(Threads),
// so clients set only the fields they sweep.
type gridPoint struct {
	Series  string          `json:"series"`
	Label   string          `json:"label"`
	Threads int             `json:"threads"`
	Config  json.RawMessage `json:"config,omitempty"`
}

// sweepRequest is the body of POST /v1/sweep: a registry experiment by
// name, or an inline config grid. Grid configs carry fetch/issue policies
// by registered name ("FetchPolicy": "ICOUNT+BRCOUNT") and nothing else.
type sweepRequest struct {
	Experiment string      `json:"experiment,omitempty"`
	Name       string      `json:"name,omitempty"` // inline-grid sweep name
	Grid       []gridPoint `json:"grid,omitempty"`
	Opts       *exp.Opts   `json:"opts,omitempty"` // nil means exp.DefaultOpts
	Wait       bool        `json:"wait,omitempty"` // block until done
	// IntervalCycles, when positive, streams each simulating job's
	// progress at this cadence: GET /v1/jobs/{id} then reports per-job
	// interval snapshots in `running` while the sweep executes.
	IntervalCycles int64 `json:"interval_cycles,omitempty"`
}

// sweepStatus is the progress report for one sweep; GET /v1/jobs/{id}
// serves it while jobs stream through the worker pool.
type sweepStatus struct {
	ID         string   `json:"id"`
	Experiment string   `json:"experiment"`
	Opts       exp.Opts `json:"opts"`
	// IntervalCycles echoes the sweep's streaming cadence (0 when the
	// client did not request interval streaming).
	IntervalCycles int64         `json:"interval_cycles,omitempty"`
	State          string        `json:"state"`
	TotalJobs      int           `json:"total_jobs"`
	DoneJobs       int           `json:"done_jobs"`
	CacheHits      int           `json:"cache_hits"`
	Running        []jobProgress `json:"running,omitempty"` // interval streaming, in (point, run) order
	Error          string        `json:"error,omitempty"`
	ResultURL      string        `json:"result_url,omitempty"`
}

// sweepPlan is everything handleSweep derives from one request body: the
// validated experiment, the opts, the expanded jobs with their
// fingerprints, and the two request switches. It is a pure function of the
// body's bytes and of registries that only grow, so Server.plans memoizes
// it under the body's digest. And because a plan fixes every job key and
// the simulator is deterministic, every sweep of one plan encodes to the
// same bytes: the first to finish leaves them in result and later sweeps
// adopt them instead of encoding again. Everything but result is read-only
// once built; sweeps of one plan share jobs.
type sweepPlan struct {
	exp      exp.Experiment
	opts     exp.Opts // validated, so already what Normalized returns
	jobs     []exp.Job
	wait     bool
	interval int64
	result   []byte // a finished sweep's EncodeJSON bytes, nil before; guarded by Server.mu
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "smtd is draining for shutdown and not accepting new sweeps")
		return
	}
	body, readErr := readSweepBody(w, r)
	p, code, err := s.planFor(body, readErr)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	sw := s.startSweep(p)
	if sw == nil {
		writeError(w, http.StatusServiceUnavailable, "smtd is draining for shutdown and not accepting new sweeps")
		return
	}
	if !p.wait {
		writeJSON(w, http.StatusAccepted, s.status(sw))
		return
	}
	select {
	case <-sw.done:
		writeJSON(w, http.StatusOK, s.status(sw))
	case <-r.Context().Done():
		// The client is gone. The sweep runs on and stays listed; only
		// this handler, which has no one left to answer, returns.
	}
}

// readSweepBody reads the request body under the sweep size cap, into a
// buffer sized from Content-Length when the client declared one. On a read
// error — the cap, a dropped connection — it returns the bytes that arrived
// before the error along with it.
func readSweepBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := bytes.MinRead
	if n := r.ContentLength; n > 0 {
		size += int(min(n, planMaxBody))
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxSweepBody))
	return buf.Bytes(), err
}

// planFor resolves a request body to its plan: the memoized one when these
// exact bytes were planned before, else a fresh decode. Only a plan that
// passed every check is stored — a rejected body is decoded, and rejected,
// again on resubmission — so a hit is exactly what the decode would
// return. A body that was not read whole or is past planMaxBody skips the
// memo. After a read error the decoder is given the bytes that arrived and
// then that error, the stream as the connection delivered it: a value
// complete before the size cap still decodes, one the cap cuts off is a
// 413. On failure the status code and the text to answer with are returned.
func (s *Server) planFor(body []byte, readErr error) (*sweepPlan, int, error) {
	if readErr != nil {
		return decodePlan(io.MultiReader(bytes.NewReader(body), errReader{readErr}))
	}
	if len(body) > planMaxBody {
		return decodePlan(bytes.NewReader(body))
	}
	key := planKey(body)
	if p, ok := s.plans.Get(key); ok {
		return p, 0, nil
	}
	p, code, err := decodePlan(bytes.NewReader(body))
	if err == nil && len(p.jobs) <= planMaxJobs {
		s.plans.Put(key, p)
	}
	return p, code, err
}

// planKey is the memo's address for a body: a collision-resistant digest,
// so equal keys mean equal bytes and the body itself need not be kept.
func planKey(body []byte) string {
	sum := sha256.Sum256(body)
	return string(sum[:])
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodePlan derives a plan from a request body: the first JSON value is
// decoded (bytes after it are ignored), the experiment resolved, the opts
// and the sweep's size checked, the grid expanded.
func decodePlan(body io.Reader) (*sweepPlan, int, error) {
	// Partial opts overlay exp.DefaultOpts, the same way partial grid
	// configs overlay smt.DefaultConfig: decoding into pre-filled defaults
	// keeps absent fields at their default values.
	o := exp.DefaultOpts()
	req := sweepRequest{Opts: &o}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("sweep body exceeds %d bytes", mbe.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("invalid request body: %v", err)
	}
	if req.Opts == nil {
		// A literal "opts": null overwrites the pre-filled pointer; treat
		// it like an absent field rather than dereferencing nil.
		req.Opts = &o
	}

	e, err := req.experimentDef()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	o = *req.Opts
	if err := o.Validate(); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("opts.%v", err)
	}
	if o.Runs > maxSweepJobs/max(1, e.Shape.Points) {
		return nil, http.StatusBadRequest, fmt.Errorf("sweep of %d points x %d runs exceeds the %d-job limit", e.Shape.Points, o.Runs, maxSweepJobs)
	}
	// The one expansion of the grid: it validates the shape, sizes the
	// sweep, and is the job list the runner executes.
	jobs, err := exp.Jobs(e, o)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if req.IntervalCycles < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("interval_cycles %d is negative; use 0 to disable interval streaming", req.IntervalCycles)
	}
	return &sweepPlan{exp: e, opts: o, jobs: jobs, wait: req.Wait, interval: req.IntervalCycles}, 0, nil
}

// experimentDef resolves the request to an experiment: a registry lookup,
// or an ad-hoc experiment wrapping the inline grid.
func (r sweepRequest) experimentDef() (exp.Experiment, error) {
	switch {
	case r.Experiment != "" && len(r.Grid) > 0:
		return exp.Experiment{}, fmt.Errorf("pass either experiment or grid, not both")
	case r.Experiment != "":
		e, ok := exp.Lookup(r.Experiment)
		if !ok {
			return exp.Experiment{}, fmt.Errorf("unknown experiment %q (GET /v1/experiments lists the registry)", r.Experiment)
		}
		return e, nil
	case len(r.Grid) > 0:
		return inlineExperiment(r.Name, r.Grid)
	default:
		return exp.Experiment{}, fmt.Errorf("empty sweep: pass an experiment name or an inline grid")
	}
}

// inlineExperiment materializes an ad-hoc grid: each point's config starts
// from smt.DefaultConfig(threads) and overlays the client's partial config
// JSON, then must validate like any machine the simulator accepts.
func inlineExperiment(name string, grid []gridPoint) (exp.Experiment, error) {
	if name == "" {
		name = "inline"
	}
	pts := make([]exp.PointSpec, 0, len(grid))
	series := map[string]bool{}
	for i, g := range grid {
		if g.Threads < 1 {
			return exp.Experiment{}, fmt.Errorf("grid[%d]: threads %d, want >= 1", i, g.Threads)
		}
		cfg, err := gridConfig(g.Threads, g.Config)
		if err != nil {
			return exp.Experiment{}, fmt.Errorf("grid[%d]: %v", i, err)
		}
		sName := g.Series
		if sName == "" {
			sName = name
		}
		label := g.Label
		if label == "" {
			label = cfg.FetchName()
		}
		series[sName] = true
		pts = append(pts, exp.PointSpec{Series: sName, Label: label, Threads: g.Threads, Config: cfg})
	}
	return exp.Experiment{
		Name:   name,
		Title:  fmt.Sprintf("inline sweep %s (%d points)", name, len(pts)),
		Shape:  exp.Shape{Series: len(series), Points: len(pts)},
		Points: func() []exp.PointSpec { return pts },
	}, nil
}

// gridConfig resolves one grid point's machine: smt.DefaultConfig(threads)
// overlaid with the client's partial config JSON, validated.
func gridConfig(threads int, raw json.RawMessage) (smt.Config, error) {
	cfg := smt.DefaultConfig(threads)
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			return smt.Config{}, fmt.Errorf("invalid config: %v", err)
		}
	}
	// The top-level threads field sized the default config (and its nested
	// per-thread subsystems); a contradictory Threads inside the overlay
	// would silently run a different machine, so reject it.
	if cfg.Threads != threads {
		return smt.Config{}, fmt.Errorf("config.Threads %d conflicts with threads %d", cfg.Threads, threads)
	}
	if err := cfg.Validate(); err != nil {
		return smt.Config{}, err
	}
	return cfg, nil
}

// startSweep registers the sweep and launches it on the engine. Progress
// streams through the runner's per-job completion callback and — when the
// client asked for interval streaming — the per-interval snapshot
// callback. It returns nil when the server started draining since the
// handler's fast-path check: the decision is re-made under the same lock
// Drain uses, closing the window where a sweep could slip in, be in no
// drain wait list, and be killed mid-run at process exit.
func (s *Server) startSweep(p *sweepPlan) *sweep {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil
	}
	s.nextID++
	sw := &sweep{
		id:         fmt.Sprintf("sweep-%d", s.nextID),
		experiment: p.exp.Name,
		opts:       p.opts,
		interval:   p.interval,
		state:      "running",
		totalJobs:  len(p.jobs),
		running:    map[jobKey]*jobProgress{},
		finished:   map[jobKey]bool{},
		cancel:     cancel,
		done:       make(chan struct{}),
	}
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.pruneHistoryLocked()
	s.mu.Unlock()

	// The dispatch pool sizes to the whole cluster at submission time:
	// local slots plus whatever capacity workers offer right now. Each
	// pool goroutine blocks on one dispatched job, so this is also the
	// sweep's backpressure bound — and it is fixed for the sweep's
	// lifetime: workers joining later receive this sweep's jobs, but
	// cannot widen its in-flight window (resubmit, or submit the next
	// sweep, to use them fully). The coordinator's local slots enforce the
	// local simulation limit and run its warm Exec; a job runs on
	// whichever slot, local or remote, is free first.
	pool := s.workers + s.coord.Capacity()
	runner := exp.Runner{
		Workers:  pool,
		Cache:    s.flight,
		Dispatch: s.coord,
		Interval: p.interval,
		OnJobDone: func(j exp.Job, r smt.Results, fromCache bool) {
			s.mu.Lock()
			defer s.mu.Unlock()
			sw.doneJobs++
			s.jobsDone++
			if fromCache {
				sw.cacheHits++
				s.cacheHits++
			}
			k := keyOf(j)
			delete(sw.running, k)
			sw.finished[k] = true
		},
	}
	if p.interval > 0 {
		runner.OnSnapshot = func(j exp.Job, snap smt.Snapshot) {
			s.mu.Lock()
			defer s.mu.Unlock()
			k := keyOf(j)
			if sw.finished[k] {
				// A snapshot posted by a remote worker can land after the
				// job's result was delivered; re-creating the running entry
				// would show a phantom in-flight job on a finished sweep.
				return
			}
			jp, ok := sw.running[k]
			if !ok {
				jp = &jobProgress{Point: j.Point, Run: j.Run, Series: j.Spec.Series, Label: j.Spec.Label}
				sw.running[k] = jp
			}
			jp.Snapshots = snap.Index + 1
			jp.Cycles = snap.Cycles
			jp.Committed = snap.Cumulative.Committed
			jp.IPC = snap.Cumulative.IPC
			jp.DeltaIPC = snap.Delta.IPC
		}
	}
	go func() {
		defer close(sw.done)
		defer cancel()
		res, err := runner.RunJobs(ctx, p.exp, p.opts, p.jobs)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			sw.state = "failed"
			sw.errMsg = err.Error()
			return
		}
		if p.result == nil {
			var buf bytes.Buffer
			if err := res.EncodeJSON(&buf); err != nil {
				sw.state = "failed"
				sw.errMsg = err.Error()
				return
			}
			p.result = buf.Bytes()
		}
		sw.resultJSON = p.result
		sw.state = "done"
	}()
	return sw
}

// pruneHistoryLocked evicts the oldest finished sweeps (and their encoded
// results) once more than maxHistory are retained, so a long-running
// service does not grow without bound. Running sweeps are never evicted;
// evicted sweep IDs answer 404 afterwards. Callers hold s.mu.
func (s *Server) pruneHistoryLocked() {
	if s.maxHistory <= 0 {
		return
	}
	excess := len(s.order) - s.maxHistory
	if excess <= 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		sw := s.sweeps[id]
		if excess > 0 && sw.state != "running" {
			delete(s.sweeps, id)
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// status snapshots a sweep's progress.
func (s *Server) status(sw *sweep) sweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(sw)
}

// jobKey identifies one (point, run) cell of a sweep's grid.
type jobKey struct{ point, run int }

func keyOf(j exp.Job) jobKey { return jobKey{j.Point, j.Run} }

// statusLocked is status for callers already holding s.mu.
func (s *Server) statusLocked(sw *sweep) sweepStatus {
	st := sweepStatus{
		ID:             sw.id,
		Experiment:     sw.experiment,
		Opts:           sw.opts,
		IntervalCycles: sw.interval,
		State:          sw.state,
		TotalJobs:      sw.totalJobs,
		DoneJobs:       sw.doneJobs,
		CacheHits:      sw.cacheHits,
		Error:          sw.errMsg,
	}
	if len(sw.running) > 0 {
		st.Running = make([]jobProgress, 0, len(sw.running))
		for _, jp := range sw.running {
			st.Running = append(st.Running, *jp)
		}
		sort.Slice(st.Running, func(i, j int) bool {
			a, b := st.Running[i], st.Running[j]
			if a.Point != b.Point {
				return a.Point < b.Point
			}
			return a.Run < b.Run
		})
	}
	if sw.state == "done" {
		st.ResultURL = "/v1/jobs/" + sw.id + "/result"
	}
	return st
}

func (s *Server) lookup(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]sweepStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.sweeps[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(sw))
}

// handleJobResult serves the finished sweep's ExperimentResult as exactly
// the engine's canonical encoding — byte-identical to what
// `experiments -json` emits for the same experiment and opts (the CLI
// wraps these objects in a JSON array).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	state, body := sw.state, sw.resultJSON
	s.mu.Unlock()
	if state != "done" {
		writeError(w, http.StatusConflict, "sweep %s is %s, not done", sw.id, state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	sw.cancel()
	<-sw.done
	writeJSON(w, http.StatusOK, s.status(sw))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}
