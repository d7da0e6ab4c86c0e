package dist

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/snapshot"
	"repro/smt"
)

// TestBodyLimits413: an oversized request body answers 413, not 400 —
// and, more importantly, the coordinator never buffers it. A valid body
// under the limit still works on the same endpoint.
func TestBodyLimits413(t *testing.T) {
	_, url := newTestCoordinator(t, Options{})

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	// A register body padded past the control-plane cap.
	big := fmt.Sprintf(`{"name":%q,"slots":1}`, strings.Repeat("x", maxControlBody))
	if code := post("/v1/workers", []byte(big)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register: status %d, want 413", code)
	}
	// The same endpoint still accepts a sane body.
	if code := post("/v1/workers", []byte(`{"name":"ok","slots":1}`)); code != http.StatusOK {
		t.Fatalf("normal register after oversized one: status %d, want 200", code)
	}
	// A snapshot body padded past the snapshot cap.
	bigSnap := fmt.Sprintf(`{"worker_id":"w1","task_id":%q}`, strings.Repeat("y", maxSnapshotBody))
	if code := post("/v1/work/snapshot", []byte(bigSnap)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized snapshot: status %d, want 413", code)
	}
	bigPoll := fmt.Sprintf(`{"worker_id":%q}`, strings.Repeat("z", maxControlBody))
	if code := post("/v1/work/next", []byte(bigPoll)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized poll: status %d, want 413", code)
	}
	// A result post carries one job's results; a padded one is refused.
	bigResult := fmt.Sprintf(`{"worker_id":"w1","task_id":%q}`, strings.Repeat("r", maxResultsBody))
	if code := post("/v1/work/result", []byte(bigResult)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized result: status %d, want 413", code)
	}
	if code := post("/v1/work/result", []byte(`{"worker_id":"w1","task_id":"t1"}`)); code != http.StatusOK {
		t.Fatalf("result for an unknown task: status %d, want 200 (acknowledged, discarded)", code)
	}
}

// TestLeaseLatencyAndAutoscaleSignal drives the scheduler into a known
// backlog shape — one saturated slot, three queued jobs — and checks the
// numbers a deployment layer would scale on: wanted slots, saturation,
// and the lease-wait accounting once the queue drains.
func TestLeaseLatencyAndAutoscaleSignal(t *testing.T) {
	coord, url := newTestCoordinator(t, Options{})

	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	// One slot: the worker holds exactly one job and the rest of the sweep
	// queues at the coordinator.
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "satslot",
		Slots:       1,
		Backoff:     20 * time.Millisecond,
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			<-release
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
	})
	defer startWorker(t, w)()
	waitFor(t, "worker to register", func() bool { return coord.Capacity() == 1 })

	e := testGrid()
	o := exp.Opts{Runs: 1, Warmup: 100, Measure: 400, Seed: 1}
	sweepDone := make(chan error, 1)
	go func() {
		_, err := (exp.Runner{Workers: 4, Dispatch: coord}).RunExperiment(context.Background(), e, o)
		sweepDone <- err
	}()
	waitFor(t, "1 leased + 3 queued", func() bool {
		st := coord.Stats()
		return st.Assigned == 1 && st.Pending == 3
	})

	st := coord.Stats()
	a := st.Autoscale
	if a.QueuedJobs != 3 || a.Capacity != 1 || a.FreeSlots != 0 || a.WantedSlots != 3 {
		t.Fatalf("backlogged autoscale signal wrong: %+v", a)
	}
	if a.Saturation != 4.0 { // (1 assigned + 3 queued) / 1 slot
		t.Fatalf("saturation = %v, want 4.0", a.Saturation)
	}

	close(release)
	select {
	case err := <-sweepDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never completed")
	}

	st = coord.Stats()
	if st.Leases != 4 {
		t.Fatalf("leases = %d, want 4 (one per job)", st.Leases)
	}
	if st.LeaseWaitSecondsTotal <= 0 {
		t.Fatalf("lease wait total = %v, want > 0 (three jobs queued behind a blocked slot)", st.LeaseWaitSecondsTotal)
	}
	if a := st.Autoscale; a.QueuedJobs != 0 || a.WantedSlots != 0 {
		t.Fatalf("drained autoscale signal wrong: %+v", a)
	}
}

// TestWorkerDrainNotWedgedByCacheTraffic: a worker draining after SIGTERM
// must not sit behind checkpoint traffic against a hung coordinator cache.
// The cache here parks every "snap:" request until the request's own
// context ends, and the worker's client timeout is five minutes. The
// worker's checkpoint store is bound to its run context, so once the drain
// starts the parked peek aborts to a miss, the job simulates cold, its
// checkpoint fill is dropped, and its result is still delivered. Bound to
// nothing, the peek rode the client timeout twice over.
func TestWorkerDrainNotWedgedByCacheTraffic(t *testing.T) {
	// The one local slot holds its first job until the worker's peek has
	// parked, so the worker is sure to lease one.
	gate := make(chan struct{})
	coord := NewCoordinator(Options{
		LocalSlots: 1,
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			<-gate
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
		ServesCache: true,
		LeaseTTL:    2 * time.Second,
		PollWait:    200 * time.Millisecond,
		SweepEvery:  50 * time.Millisecond,
		Logf:        t.Logf,
	})
	t.Cleanup(coord.Close)
	var parked atomic.Int64
	stop := make(chan struct{})
	mux := http.NewServeMux()
	coord.Handle(mux)
	mux.HandleFunc("/v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.PathValue("key"), snapshot.KeyPrefix) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		parked.Add(1)
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: releases parked handlers before srv.Close waits on them

	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL,
		Name:        "drainer",
		Slots:       1,
		Backoff:     20 * time.Millisecond,
		Client:      &http.Client{Timeout: 5 * time.Minute},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitFor(t, "worker to register", func() bool { return coord.Capacity() == 1 })

	e := testGrid()
	o := exp.Opts{Runs: 1, Warmup: 100, Measure: 400, Seed: 1}
	local, err := exp.Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *exp.ExperimentResult
		err error
	}
	sweepDone := make(chan outcome, 1)
	go func() {
		res, err := (exp.Runner{Workers: 2, Dispatch: coord}).RunExperiment(context.Background(), e, o)
		sweepDone <- outcome{res, err}
	}()

	// The worker's one job is parked inside its checkpoint peek. Cancel the
	// worker: the peek must abort, and the job must simulate and deliver.
	waitFor(t, "the job's checkpoint peek to park", func() bool { return parked.Load() >= 1 })
	close(gate)
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("worker Run returned error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drain wedged behind hung checkpoint traffic")
	}
	if done := w.JobsDone(); done != 1 {
		t.Fatalf("worker delivered %d jobs, want its one leased job", done)
	}
	if n := parked.Load(); n != 1 {
		t.Fatalf("%d checkpoint requests reached the cache, want the one peek (a drained fill is dropped)", n)
	}
	// The local slot ran the rest of the sweep, and the bytes did not move.
	select {
	case out := <-sweepDone:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if lb, rb := encode(t, local), encode(t, out.res); lb != rb {
			t.Fatalf("drained sweep changed the bytes\nlocal:\n%s\ngot:\n%s", lb, rb)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never completed after worker drain")
	}
}
