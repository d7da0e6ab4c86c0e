package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// TestWorkerDrainBoundedByDeadCoordinator: regression for the bare
// time.Sleep retry loop result posts used to run. A worker holding a
// finished result whose coordinator stops answering must still complete
// a SIGTERM drain within DrainGrace plus slack — the old loop parked the
// post on client-timeout x retries with nothing able to interrupt it,
// wedging shutdown for minutes.
func TestWorkerDrainBoundedByDeadCoordinator(t *testing.T) {
	var polled atomic.Bool
	var resultOnce sync.Once
	resultArrived := make(chan struct{})
	// Parked handlers cannot rely on r.Context(): the server only notices
	// a client disconnect once it reads the (never-read) request body, so
	// srv.Close would wait on them forever. stop releases them at test end.
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPut: // beats
			json.NewEncoder(rw).Encode(BeatResponse{LeaseTTLMS: 15000, PollWaitMS: 50})
		case r.URL.Path == "/v1/work/next":
			if polled.CompareAndSwap(false, true) {
				json.NewEncoder(rw).Encode(Batch{Assignments: []Assignment{
					{TaskID: "t1"},
				}})
				return
			}
			select { // park later polls; the run ctx bounds the worker side
			case <-r.Context().Done():
			case <-stop:
			}
		case r.URL.Path == "/v1/work/result":
			// The coordinator "dies" exactly when the result shows up:
			// never answer, let the connection hang.
			resultOnce.Do(func() { close(resultArrived) })
			select {
			case <-r.Context().Done():
			case <-stop:
			}
		default:
			rw.WriteHeader(http.StatusOK) // deregister
		}
	}))
	defer srv.Close()
	defer close(stop) // LIFO: released before srv.Close waits on them

	w := NewWorker(WorkerOptions{
		Coordinator: srv.URL,
		Name:        "stuck-poster",
		Slots:       1,
		Backoff:     20 * time.Millisecond,
		DrainGrace:  300 * time.Millisecond,
		// A client timeout far beyond the test bound: only the post
		// context being cut can unstick the drain.
		Client: &http.Client{Timeout: 5 * time.Minute},
		Exec: func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
			return smt.Results{}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()

	select {
	case <-resultArrived:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never posted its result")
	}
	cancel() // SIGTERM: the drain starts with the result post already wedged
	start := time.Now()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain returned error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("drain still wedged after 5s with DrainGrace 300ms; result-post retries are not context-aware")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("drain took %v, want bounded by DrainGrace (300ms) plus slack", elapsed)
	}
}

// TestDrainingWorkerLeavesCapacity: a worker that starts draining beats
// zero slots, so within one beat it stops counting toward Capacity — and
// the autoscale signal — while it still holds the lease it is finishing.
// Sweeps submitted meanwhile must not size their pools on slots that will
// never poll again. Once the job is released, Run returns cleanly.
func TestDrainingWorkerLeavesCapacity(t *testing.T) {
	coord, url := newTestCoordinator(t, Options{LeaseTTL: 600 * time.Millisecond})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	w := NewWorker(WorkerOptions{
		Coordinator: url,
		Name:        "drainer",
		Slots:       2,
		Backoff:     20 * time.Millisecond,
		Exec: func(JobPayload, func(smt.Snapshot)) smt.Results {
			started <- struct{}{}
			<-release
			return smt.Results{Committed: 1}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitFor(t, "worker to join", func() bool { return coord.Capacity() == 2 })

	jobDone := make(chan error, 1)
	go func() {
		_, err := coord.Dispatch(context.Background(), exp.Job{Spec: exp.PointSpec{Config: exp.ICount28(1)}}, testOpts(), 0, nil)
		jobDone <- err
	}()
	// Wait on the job running, not on the lease: a drain that races the
	// poll reply loses that lease legitimately.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the job never started on the worker")
	}
	cancel()
	for deadline := time.Now().Add(2 * time.Second); coord.Capacity() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a draining worker still offers %d slots", coord.Capacity())
		}
		if st := coord.Stats(); st.Assigned != 1 {
			t.Fatalf("assigned = %d while draining, want the one job the worker is finishing", st.Assigned)
		}
	}
	if st := coord.Stats(); st.Assigned != 1 || st.Autoscale.FreeSlots != 0 {
		t.Fatalf("a draining worker's lease or slots moved: %+v", st)
	}

	releaseOnce.Do(func() { close(release) })
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drained worker's Run = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the job was released")
	}
	if err := <-jobDone; err != nil {
		t.Fatal(err)
	}
}
