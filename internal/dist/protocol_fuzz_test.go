package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// FuzzProtocolBodies: arbitrary bytes as the body of each worker-facing
// POST — register, poll, result, snapshot — through the real handlers of a
// coordinator mid-sweep never panic, are answered 200, 204, 400, 404, 409
// or 413, and never complete or stream into a job the coordinator has not
// leased to anyone.
func FuzzProtocolBodies(f *testing.F) {
	paths := []string{"/v1/workers", "/v1/work/next", "/v1/work/result", "/v1/work/snapshot"}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	// What the package's own tests and its worker put on the wire.
	f.Add(uint8(0), []byte(`{"name":"ok","slots":1}`))
	f.Add(uint8(0), []byte(`{"name":"skewed","slots":2,"build":"rev-worker"}`))
	f.Add(uint8(0), []byte(`{"name":"none","slots":0}`))
	f.Add(uint8(0), []byte(fmt.Sprintf(`{"name":%q,"slots":1}`, strings.Repeat("x", maxControlBody))))
	f.Add(uint8(1), marshal(PollRequest{WorkerID: "w1", Max: 3}))
	f.Add(uint8(1), marshal(PollRequest{WorkerID: "w9"}))
	for _, task := range []string{"t1", "t2", "t3"} {
		f.Add(uint8(2), marshal(ResultsRequest{WorkerID: "w1", TaskID: task, Results: smt.Results{Committed: 7}}))
		f.Add(uint8(3), marshal(SnapshotRequest{WorkerID: "w1", TaskID: task, Snapshot: smt.Snapshot{Index: 1, Cycles: 50}}))
	}
	f.Add(uint8(2), []byte(`{"worker_id":"w1","results":[{"task_id":"t1"},{"task_id":"t2"}]}`)) // the retired batched shape
	f.Add(uint8(3), []byte(fmt.Sprintf(`{"worker_id":"w1","task_id":%q}`, strings.Repeat("y", maxSnapshotBody))))
	f.Add(uint8(3), []byte(`{"task_id":"t2","snapshot":{"Index":1}}`)) // no worker_id: matches a queued task's empty assignee
	f.Add(uint8(1), []byte("not json"))
	f.Add(uint8(2), []byte{})

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		c := NewCoordinator(Options{
			PollWait: time.Millisecond,
			Build:    "rev-coordinator",
			Exec: func(JobPayload, func(smt.Snapshot)) smt.Results {
				t.Error("a job ran with no local slots")
				return smt.Results{}
			},
		})
		defer c.Close()
		mux := http.NewServeMux()
		c.Handle(mux)
		post := func(path string, body []byte) int {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			return rec.Code
		}

		// Mid-sweep: worker w1 holds a lease on t1; t2 is queued and has
		// never been leased.
		if code := post(paths[0], []byte(`{"name":"legit","slots":1}`)); code != http.StatusOK {
			t.Fatalf("register: %d", code)
		}
		ctx, cancel := context.WithCancel(context.Background())
		dispatched := make(chan struct{}, 2)
		streamedUnleased := false
		dispatch := func(onSnap func(smt.Snapshot)) {
			go func() {
				c.Dispatch(ctx, exp.Job{Spec: exp.PointSpec{Config: exp.ICount28(1)}}, testOpts(), 10, onSnap)
				dispatched <- struct{}{}
			}()
		}
		queued := func(n int) *task {
			for {
				c.mu.Lock()
				tk := c.tasks[fmt.Sprintf("t%d", n)]
				c.mu.Unlock()
				if tk != nil {
					return tk
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		dispatch(func(smt.Snapshot) {})
		queued(1)
		if code := post(paths[1], []byte(`{"worker_id":"w1","max":1}`)); code != http.StatusOK {
			t.Fatalf("poll: %d", code)
		}
		dispatch(func(smt.Snapshot) { streamedUnleased = true })
		unleased := queued(2)

		switch code := post(paths[int(which)%len(paths)], body); code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s answered %d", paths[int(which)%len(paths)], code)
		}

		c.mu.Lock()
		done := unleased.done
		c.mu.Unlock()
		if done {
			t.Fatalf("%s completed a job that was never leased", paths[int(which)%len(paths)])
		}
		if streamedUnleased {
			t.Fatal("a snapshot reached a job that was never leased")
		}
		cancel()
		<-dispatched
		<-dispatched
	})
}
