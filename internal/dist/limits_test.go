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

	"repro/internal/cache"
	"repro/internal/exp"
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
	// Poll and results share the same decoder; spot-check poll.
	bigPoll := fmt.Sprintf(`{"worker_id":%q}`, strings.Repeat("z", maxControlBody))
	if code := post("/v1/work/next", []byte(bigPoll)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized poll: status %d, want 413", code)
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
	// One slot, no lease-ahead: the worker holds exactly one job and the
	// rest of the sweep queues at the coordinator.
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "satslot",
		Slots:       1,
		Prefetch:    -1,
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
// must not sit behind cache peeks or fills against a slow/hung
// coordinator cache. The cache here hangs forever on a live request and
// only the run context can abort it — pre-fix, the drain rode out the
// full HTTP client timeout per job; post-fix the peek aborts with the
// context, the job simulates, and the drain finishes promptly.
func TestWorkerDrainNotWedgedByCacheTraffic(t *testing.T) {
	coord, url := newTestCoordinator(t, Options{ServesCache: true})

	// A cache endpoint that never answers: requests park until their own
	// context ends.
	var parked atomic.Int64
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parked.Add(1)
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)

	executed := make(chan struct{}, 16)
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "drainer",
		Slots:       1,
		Backoff:     20 * time.Millisecond,
		// A client timeout far beyond the test bound: only context-aware
		// cache traffic can keep the drain fast.
		Cache: cache.NewRemote[smt.Results](hung.URL, &http.Client{Timeout: 5 * time.Minute}),
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			executed <- struct{}{}
			return SimulateJob(exp.WarmEnv{})(p, onSnap)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitFor(t, "worker to register", func() bool { return coord.Capacity() == 1 })

	e := testGrid()
	o := exp.Opts{Runs: 1, Warmup: 100, Measure: 400, Seed: 1}
	sweepDone := make(chan error, 1)
	go func() {
		_, err := (exp.Runner{Workers: 2, Dispatch: coord}).RunExperiment(context.Background(), e, o)
		sweepDone <- err
	}()

	// The first job is parked inside its cache peek against the hung
	// endpoint (Exec hasn't run yet). Cancel the worker: the peek must
	// abort on the context, the job must simulate and deliver, and every
	// remaining job must do the same without waiting out the 5m timeout.
	// (Waiting on the lease alone is not enough: cancelling while the poll
	// response carrying it is still in flight drops the job undelivered.)
	waitFor(t, "first job parked in its cache peek", func() bool { return parked.Load() >= 1 })
	cancel()

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("worker Run returned error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drain wedged behind hung cache traffic")
	}
	// The in-flight job really simulated (cache aborted to a miss).
	select {
	case <-executed:
	default:
		t.Fatal("job never reached Exec; the cache peek must degrade to a miss")
	}
	// And the sweep still completes: the drained job was delivered, the
	// rest fell back to coordinator-local execution after deregistration.
	select {
	case err := <-sweepDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never completed after worker drain")
	}
}
