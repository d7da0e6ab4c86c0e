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
// message — a beat from the worker holding a lease, poll, result,
// snapshot, a beat from a second id — through the real handlers of a
// coordinator mid-sweep never panic, are answered 200, 204, 400, 404, 409
// or 413, never complete or stream into a job the coordinator has not
// leased to anyone, and never lease a worker more jobs in one poll reply
// than its beat offered slots. A zero-slot beat never adds a worker or
// capacity, and only the lease holder's own beat moves its lease's
// deadline.
func FuzzProtocolBodies(f *testing.F) {
	routes := []struct{ method, path string }{
		{"PUT", "/v1/workers/w1"},
		{"POST", "/v1/work/next"},
		{"POST", "/v1/work/result"},
		{"POST", "/v1/work/snapshot"},
		{"PUT", "/v1/workers/w2"},
	}
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
	f.Add(uint8(3), []byte(`{"task_id":"t2","snapshot":{"Index":1}}`))              // no worker_id: matches a queued task's empty assignee
	f.Add(uint8(4), marshal(Beat{Name: "second", Slots: 1, Tasks: []string{"t1"}})) // t1 is w1's
	f.Add(uint8(4), marshal(Beat{Tasks: []string{"t1", "t2", "t9"}}))               // t2 is queued, t9 unknown
	f.Add(uint8(4), []byte(`{}`))
	f.Add(uint8(4), []byte(`{"tasks":"t1"}`))
	f.Add(uint8(4), []byte(fmt.Sprintf(`{"tasks":[%q]}`, strings.Repeat("z", maxControlBody))))
	f.Add(uint8(1), []byte("not json"))
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0), marshal(Beat{Name: "legit", Slots: 1, Tasks: []string{"t1", "t2", "t9"}}))
	f.Add(uint8(4), marshal(Beat{Name: "second", Slots: maxWorkerSlots, Build: "rev-coordinator"}))

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
		send := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}

		// Mid-sweep: worker w1, one slot, holds a lease on t1; t2 and t3
		// are queued and have never been leased.
		if code := send("PUT", "/v1/workers/w1", []byte(`{"name":"legit","slots":1}`)).Code; code != http.StatusOK {
			t.Fatalf("beat: %d", code)
		}
		ctx, cancel := context.WithCancel(context.Background())
		dispatched := make(chan struct{}, 3)
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
		leased := queued(1)
		if code := send("POST", "/v1/work/next", []byte(`{"worker_id":"w1","max":1}`)).Code; code != http.StatusOK {
			t.Fatalf("poll: %d", code)
		}
		dispatch(func(smt.Snapshot) { streamedUnleased = true })
		unleased := []*task{queued(2)}
		dispatch(func(smt.Snapshot) { streamedUnleased = true })
		unleased = append(unleased, queued(3))

		route := routes[int(which)%len(routes)]
		path := route.path
		before := c.Stats()
		c.mu.Lock()
		deadline := leased.deadline
		c.mu.Unlock()
		rec := send(route.method, path, body)
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusNotFound,
			http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s answered %d", path, rec.Code)
		}
		if path == routes[1].path && rec.Code == http.StatusOK {
			var batch Batch
			if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
				t.Fatalf("poll reply: %v", err)
			}
			if len(batch.Assignments) > 1 {
				t.Fatalf("a poll reply leased %d jobs to a 1-slot worker", len(batch.Assignments))
			}
		}

		var b Beat
		if route.method == "PUT" && json.NewDecoder(bytes.NewReader(body)).Decode(&b) == nil && b.Slots == 0 {
			if after := c.Stats(); len(after.Workers) > len(before.Workers) || after.Capacity > before.Capacity {
				t.Fatalf("a zero-slot beat to %s grew the fleet from %d workers, %d slots to %d, %d",
					path, len(before.Workers), before.Capacity, len(after.Workers), after.Capacity)
			}
		}

		c.mu.Lock()
		done := unleased[0].done || unleased[1].done
		moved := !leased.deadline.Equal(deadline)
		c.mu.Unlock()
		if moved && path != routes[0].path {
			t.Fatalf("%s %s moved the deadline of a lease it does not hold", route.method, path)
		}
		if done {
			t.Fatalf("%s completed a job that was never leased", path)
		}
		if streamedUnleased {
			t.Fatal("a snapshot reached a job that was never leased")
		}
		cancel()
		for range 3 {
			<-dispatched
		}
	})
}
