package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// testGrid is a 4-point, 1-series sweep over distinct fetch schemes at 2
// threads — small enough to run in milliseconds, varied enough that a
// scheduling bug that swaps or drops a point changes the bytes.
func testGrid() exp.Experiment {
	specs := []exp.PointSpec{}
	for _, s := range []struct {
		alg  string
		num1 int
	}{{"RR", 1}, {"ICOUNT", 1}, {"ICOUNT", 2}, {"BRCOUNT", 1}} {
		cfg := exp.MustFetchScheme(2, s.alg, s.num1, 8)
		specs = append(specs, exp.PointSpec{Series: "dist", Label: cfg.FetchName(), Threads: 2, Config: cfg})
	}
	return exp.Experiment{
		Name:   "disttest",
		Title:  "distributed execution test grid",
		Shape:  exp.Shape{Series: 1, Points: len(specs)},
		Points: func() []exp.PointSpec { return specs },
	}
}

func testOpts() exp.Opts {
	return exp.Opts{Runs: 2, Warmup: 200, Measure: 500, Seed: 1}
}

// encode renders the canonical result JSON whose byte equality is the
// distributed path's correctness contract.
func encode(t *testing.T, r *exp.ExperimentResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newTestCoordinator builds a coordinator with test-speed timings on an
// httptest server.
func newTestCoordinator(t *testing.T, opts Options) (*Coordinator, string) {
	t.Helper()
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	if opts.PollWait == 0 {
		opts.PollWait = 200 * time.Millisecond
	}
	if opts.SweepEvery == 0 {
		opts.SweepEvery = 50 * time.Millisecond
	}
	opts.Logf = t.Logf
	c := NewCoordinator(opts)
	t.Cleanup(c.Close)
	mux := http.NewServeMux()
	c.Handle(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv.URL
}

// startWorker runs a worker until the returned stop function is called,
// which cancels it and waits (bounded) for its drain to finish. stop
// deliberately never touches t: it may run from deferred cleanup after a
// failure, when the test is already finished. A worker that cannot even
// register shows up as a waitFor timeout in the test body instead.
func startWorker(t *testing.T, w *Worker) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			select {
			case <-errc:
			case <-time.After(15 * time.Second):
			}
		})
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerFailover kills a worker that is holding leased jobs hostage
// mid-sweep and requires the sweep to complete with byte-identical
// results, every job delivered exactly once — the "worker crash → lease
// expiry → requeue" path.
func TestWorkerFailover(t *testing.T) {
	e, o := testGrid(), testOpts()
	local, err := exp.Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}

	coord, url := newTestCoordinator(t, Options{
		LeaseTTL:    500 * time.Millisecond,
		PollWait:    100 * time.Millisecond,
		SweepEvery:  50 * time.Millisecond,
		MaxAttempts: 5,
	})

	// Victim: grabs jobs and never finishes them (a hung node). Its Exec
	// parks until the test releases it at cleanup so its drain can
	// complete, and its transport can be severed to simulate a crash —
	// a graceful context cancel is NOT a crash: drain keeps heartbeating
	// until in-flight work finishes, deliberately holding the leases.
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	kt := &killableTransport{}
	victim := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "victim",
		Slots:       2,
		Backoff:     50 * time.Millisecond,
		Client:      &http.Client{Transport: kt, Timeout: 10 * time.Second},
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			<-release
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
	})
	stopVictim := startWorker(t, victim)
	defer stopVictim()
	waitFor(t, "victim to register", func() bool { return coord.Capacity() == 2 })

	// Survivor: a normal worker that must absorb the victim's jobs.
	survivor := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "survivor",
		Slots:       2,
		Backoff:     50 * time.Millisecond,
	})
	defer startWorker(t, survivor)()
	waitFor(t, "survivor to register", func() bool { return coord.Capacity() == 4 })

	// Count every job completion; failover must not drop or duplicate.
	var mu sync.Mutex
	seen := map[string]int{}
	runner := exp.Runner{
		Workers:  4,
		Dispatch: coord,
		OnJobDone: func(j exp.Job, r smt.Results, fromCache bool) {
			mu.Lock()
			seen[fmt.Sprintf("p%d.r%d", j.Point, j.Run)]++
			mu.Unlock()
		},
	}
	resCh := make(chan *exp.ExperimentResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := runner.RunExperiment(context.Background(), e, o)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	// Once the victim is sitting on leased jobs, crash it: sever its
	// network (heartbeats, polls, and result posts all start failing)
	// while its Exec keeps hanging — exactly a dead or partitioned node
	// from the coordinator's point of view.
	waitFor(t, "victim to hold leased jobs", func() bool { return victim.JobsDone() == 0 && workerRunning(coord, "victim") > 0 })
	kt.dead.Store(true)
	stopVictimAsync := make(chan struct{})
	go func() { // stopVictim blocks on drain (Exec is parked); run it aside
		defer close(stopVictimAsync)
		stopVictim()
	}()

	var remote *exp.ExperimentResult
	select {
	case remote = <-resCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not complete after worker failure")
	}
	if lb, rb := encode(t, local), encode(t, remote); lb != rb {
		t.Fatalf("failover changed the bytes\nlocal:\n%s\nfailover:\n%s", lb, rb)
	}
	jobs := len(e.Points()) * o.Runs
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != jobs {
		t.Fatalf("saw %d distinct jobs, want %d: %v", len(seen), jobs, seen)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %s completed %d times, want exactly once", id, n)
		}
	}
	if st := coord.Stats(); st.Requeues == 0 {
		t.Fatalf("no requeues recorded; the failover path never ran (stats %+v)", st)
	}

	close(release)
	<-stopVictimAsync
}

// TestLastWorkerLeavesPendingJobsComplete: when the only worker leaves
// while dispatched jobs are still queued (never leased), the local slots
// must run them instead of the sweep waiting forever for a fleet that no
// longer exists.
func TestLastWorkerLeavesPendingJobsComplete(t *testing.T) {
	e, o := testGrid(), testOpts()
	local, err := exp.Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}

	// The one local slot holds its first job until the worker has left, so
	// the worker's departure strands queued jobs only that slot can take.
	gate := make(chan struct{})
	coord, url := newTestCoordinator(t, Options{
		LocalSlots: 1,
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			<-gate
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
	})
	// One slow slot: the sweep's 8 jobs queue up behind it.
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "leaver",
		Slots:       1,
		Backoff:     50 * time.Millisecond,
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			time.Sleep(100 * time.Millisecond)
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
	})
	stop := startWorker(t, w)
	defer stop()
	waitFor(t, "worker to register", func() bool { return coord.Capacity() == 1 })

	resCh := make(chan *exp.ExperimentResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := exp.Runner{Workers: 4, Dispatch: coord}.RunExperiment(context.Background(), e, o)
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()
	// Let the worker take (and finish) at least one job, leaving the rest
	// pending, then gracefully stop it: it drains and deregisters, and the
	// local slot must run the still-queued jobs.
	waitFor(t, "first remote completion", func() bool { return coord.Stats().RemoteDone >= 1 })
	stop()
	if st := coord.Stats(); st.Capacity != 0 || st.Pending == 0 {
		t.Fatalf("want the fleet gone with jobs still queued, got %+v", st)
	}
	close(gate)

	select {
	case remote := <-resCh:
		if lb, rb := encode(t, local), encode(t, remote); lb != rb {
			t.Fatalf("fallback-after-departure changed the bytes\nlocal:\n%s\ngot:\n%s", lb, rb)
		}
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep hung after the last worker left (stats %+v)", coord.Stats())
	}
	if st := coord.Stats(); st.LocalDone < 2 {
		t.Fatalf("local_done = %d, want the gated job and at least one left by the worker (stats %+v)", st.LocalDone, st)
	}
}

// TestLocalSlotsAddCapacity: with a one-slot fleet and two local slots,
// both take jobs from the one queue — local capacity adds to the cluster
// instead of idling — and the bytes still match a plain local run.
func TestLocalSlotsAddCapacity(t *testing.T) {
	e, o := testGrid(), testOpts()
	local, err := exp.Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}

	// Every slot is slow, so four jobs in flight keep each side busy
	// while the other leases.
	slow := func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
		time.Sleep(50 * time.Millisecond)
		return SimulateJob(exp.WarmEnv{})(p, onSnap)
	}
	coord, url := newTestCoordinator(t, Options{LocalSlots: 2, Exec: slow})
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "slowpoke",
		Slots:       1,
		Backoff:     50 * time.Millisecond,
		Exec:        slow,
	})
	defer startWorker(t, w)()
	waitFor(t, "worker to register", func() bool { return coord.Capacity() == 1 })

	remote, err := exp.Runner{Workers: 4, Dispatch: coord}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	if lb, rb := encode(t, local), encode(t, remote); lb != rb {
		t.Fatalf("mixed sweep changed the bytes\nlocal:\n%s\ngot:\n%s", lb, rb)
	}
	st := coord.Stats()
	if st.LocalDone == 0 || st.RemoteDone == 0 {
		t.Fatalf("want both local and remote execution, got local=%d remote=%d", st.LocalDone, st.RemoteDone)
	}
	if st.LocalDone+st.RemoteDone != int64(len(e.Points())*o.Runs) {
		t.Fatalf("local %d + remote %d != %d jobs", st.LocalDone, st.RemoteDone, len(e.Points())*o.Runs)
	}
}

// TestBuildMismatchRejected: a worker from a different binary must not
// join — its simulator could differ, silently breaking byte-identity and
// poisoning the shared cache. Unknown builds (un-stamped dev binaries)
// are still accepted.
func TestBuildMismatchRejected(t *testing.T) {
	_, url := newTestCoordinator(t, Options{Build: "rev-coordinator"})
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "skewed",
		Slots:       1,
		Build:       "rev-other",
		Backoff:     50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "does not match coordinator build") {
		t.Fatalf("mismatched worker joined (err = %v)", err)
	}
	// An unknown (un-stamped) build cannot be verified and is accepted.
	body, _ := json.Marshal(RegisterRequest{Name: "unstamped", Slots: 1})
	resp, err := http.Post(url+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown-build registration: status %d, want 200", resp.StatusCode)
	}
}

// killableTransport simulates a worker crash: once dead, every request
// it carries fails, cutting the worker off from the coordinator while
// its goroutines keep running.
type killableTransport struct{ dead atomic.Bool }

func (k *killableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, errors.New("simulated worker crash: network severed")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// workerRunning reports how many jobs the named worker currently leases.
func workerRunning(c *Coordinator, name string) int {
	for _, w := range c.Stats().Workers {
		if w.Name == name {
			return w.Running
		}
	}
	return 0
}

// TestDispatchCancellation: cancelling the sweep context releases
// dispatches promptly even while jobs sit unclaimed in the queue.
func TestDispatchCancellation(t *testing.T) {
	coord, url := newTestCoordinator(t, Options{})
	// With no local slots every job queues for the one worker; give it
	// zero chance to finish by blocking its Exec.
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "blocker",
		Slots:       1,
		Backoff:     50 * time.Millisecond,
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			<-release
			return smt.Results{}
		},
	})
	stop := startWorker(t, w)
	waitFor(t, "blocker to register", func() bool { return coord.Capacity() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := exp.Runner{Workers: 2, Dispatch: coord}.RunExperiment(ctx, testGrid(), testOpts())
		errc <- err
	}()
	waitFor(t, "jobs to be dispatched", func() bool { return coord.Stats().Dispatched > 0 })
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled sweep reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sweep did not return")
	}
	close(release)
	stop()
}

// TestWorkerBacklogStaysVisible: a worker leases only what it can start.
// With four jobs queued, a default one-slot worker takes one; the other
// three stay in the coordinator's queue, where the autoscale signal counts
// them. Cancelled mid-job, the worker still delivers the job it leased and
// returns from Run, and the local slot runs the queued jobs.
func TestWorkerBacklogStaysVisible(t *testing.T) {
	// The one local slot is held by a job of its own until the end, so the
	// sweep's jobs queue and the worker's first poll finds the whole
	// backlog.
	gate := make(chan struct{})
	localRunning := make(chan struct{}, 1)
	coord, url := newTestCoordinator(t, Options{
		LocalSlots: 1,
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			select {
			case localRunning <- struct{}{}:
			default:
			}
			<-gate
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
	})
	o := exp.Opts{Runs: 1, Warmup: 100, Measure: 400, Seed: 1}
	held := make(chan error, 1)
	go func() {
		_, err := coord.Dispatch(context.Background(), exp.Job{Spec: exp.PointSpec{Config: exp.ICount28(1)}}, o, 0, nil)
		held <- err
	}()
	<-localRunning

	release := make(chan struct{})
	running := make(chan struct{}, 16)
	exec := func(p JobPayload, _ func(smt.Snapshot)) smt.Results {
		running <- struct{}{}
		<-release
		return SimulateJob(exp.WarmEnv{})(p, nil)
	}

	e := testGrid()
	sweepDone := make(chan error, 1)
	go func() {
		_, err := (exp.Runner{Workers: 4, Dispatch: coord}).RunExperiment(context.Background(), e, o)
		sweepDone <- err
	}()
	waitFor(t, "jobs to queue behind the busy local slot", func() bool { return coord.Stats().Pending == 4 })

	w := NewWorker(WorkerOptions{Coordinator: url, Name: "drainer", Slots: 1, Exec: exec, Backoff: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	<-running

	st := coord.Stats()
	if st.Assigned != 1 || st.Pending != 3 || st.Autoscale.WantedSlots != 3 {
		t.Fatalf("one busy slot, three queued jobs: got assigned=%d pending=%d autoscale=%+v",
			st.Assigned, st.Pending, st.Autoscale)
	}

	// Shut the worker down mid-job, then let the job finish and free the
	// local slot.
	cancel()
	close(release)
	close(gate)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("worker Run returned error: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker Run did not return after cancel")
	}
	select {
	case err := <-sweepDone:
		if err != nil {
			t.Fatalf("sweep failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("sweep never completed")
	}
	// Every leased job is delivered on drain.
	if done := w.JobsDone(); done != 1 {
		t.Fatalf("worker delivered %d jobs, want its one leased job", done)
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.RemoteDone != 1 || st.LocalDone != 4 {
		t.Fatalf("remote %d / local %d, want 1 / 4 (three queued jobs and the one holding the slot)", st.RemoteDone, st.LocalDone)
	}
}
