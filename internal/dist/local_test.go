package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// localProbe is a coordinator whose Exec reports each job it starts, then
// parks until the test lets it go.
type localProbe struct {
	coord   *Coordinator
	url     string
	started chan struct{} // one send per Exec
	release chan struct{} // one receive per Exec
	workers int           // phantoms joined so far
}

func newLocalProbe(t *testing.T, opts Options) *localProbe {
	p := &localProbe{
		started: make(chan struct{}, 8),
		release: make(chan struct{}, 8),
	}
	opts.Exec = func(JobPayload, func(smt.Snapshot)) smt.Results {
		p.started <- struct{}{}
		<-p.release
		return smt.Results{Committed: 1}
	}
	p.coord, p.url = newTestCoordinator(t, opts)
	return p
}

// dispatch sends one job through the coordinator in the background.
func (p *localProbe) dispatch(ctx context.Context) <-chan error {
	errc := make(chan error, 1)
	go func() {
		j := exp.Job{Spec: exp.PointSpec{Config: exp.ICount28(1)}}
		res, err := p.coord.Dispatch(ctx, j, testOpts(), 0, nil)
		if err == nil && res.Committed != 1 {
			err = errors.New("dispatch returned a result Exec did not produce")
		}
		errc <- err
	}()
	return errc
}

// waitStart waits for a local slot to start a job.
func (p *localProbe) waitStart(t *testing.T, what string) {
	t.Helper()
	select {
	case <-p.started:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never started on a local slot", what)
	}
}

// finish lets one running job end and waits for its dispatch to return.
func (p *localProbe) finish(t *testing.T, errc <-chan error) {
	t.Helper()
	p.release <- struct{}{}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never returned")
	}
}

// phantom joins a new one-slot worker with a single beat; it never beats
// or polls on its own. It returns the worker's id.
func (p *localProbe) phantom(t *testing.T) string {
	t.Helper()
	p.workers++
	id := fmt.Sprintf("phantom%d", p.workers)
	if code := beat(t, p.url, id, `{"name":"phantom","slots":1}`); code != http.StatusOK {
		t.Fatalf("phantom beat answered %d", code)
	}
	return id
}

// poll asks for one job on behalf of worker id and returns the status.
func (p *localProbe) poll(t *testing.T, id string) int {
	t.Helper()
	body, _ := json.Marshal(PollRequest{WorkerID: id, Max: 1})
	resp, err := http.Post(p.url+"/v1/work/next", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestLocalSlots: the coordinator's local slots lease from the queue the
// workers' polls lease from. A free local slot takes the next job whatever
// the workers hold, a job out of remote attempts runs on a local slot and
// is never leased again, a job cancelled while queued runs nowhere, and
// with no slot anywhere a dispatch waits for its context.
func TestLocalSlots(t *testing.T) {
	t.Run("idle slot", func(t *testing.T) {
		// The lease outlasts the test: nothing but a free slot can run the
		// third job.
		p := newLocalProbe(t, Options{LocalSlots: 1, LeaseTTL: time.Minute})
		first := p.dispatch(context.Background())
		p.waitStart(t, "the first job")
		// With the local slot busy, the second job goes to a one-slot
		// worker, which holds it.
		id := p.phantom(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		leased := p.dispatch(ctx)
		waitFor(t, "the second job to queue", func() bool { return p.coord.Stats().Pending == 1 })
		if code := p.poll(t, id); code != http.StatusOK {
			t.Fatalf("poll answered %d, want a lease", code)
		}
		p.finish(t, first)
		// The local slot is free again: the third job must not wait out
		// the worker's lease.
		third := p.dispatch(context.Background())
		p.waitStart(t, "a job queued while a worker holds a lease")
		p.finish(t, third)
		if st := p.coord.Stats(); st.LocalDone != 2 || st.Assigned != 1 {
			t.Fatalf("local_done = %d assigned = %d, want 2 and 1", st.LocalDone, st.Assigned)
		}
		cancel()
		if err := <-leased; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leased dispatch returned %v", err)
		}
	})

	t.Run("out of attempts", func(t *testing.T) {
		p := newLocalProbe(t, Options{LocalSlots: 1, MaxAttempts: 1, LeaseTTL: 200 * time.Millisecond, SweepEvery: 20 * time.Millisecond})
		first := p.dispatch(context.Background())
		p.waitStart(t, "the first job")
		id := p.phantom(t)
		second := p.dispatch(context.Background())
		waitFor(t, "the second job to queue", func() bool { return p.coord.Stats().Pending == 1 })
		if code := p.poll(t, id); code != http.StatusOK {
			t.Fatalf("poll answered %d, want a lease", code)
		}
		// The worker goes silent: its lease expires, and the job, out of
		// its one remote attempt, waits for the busy local slot alone.
		waitFor(t, "the lease to expire", func() bool { return p.coord.Stats().Requeues == 1 })
		if code := p.poll(t, p.phantom(t)); code != http.StatusNoContent {
			t.Fatalf("a fresh worker's poll answered %d: a job out of remote attempts was leased again", code)
		}
		p.finish(t, first)
		p.waitStart(t, "the job out of remote attempts")
		p.finish(t, second)
		if st := p.coord.Stats(); st.LocalDone != 2 || st.RemoteDone != 0 || st.Leases != 1 {
			t.Fatalf("local_done = %d remote_done = %d leases = %d, want 2, 0 and 1", st.LocalDone, st.RemoteDone, st.Leases)
		}
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		p := newLocalProbe(t, Options{LocalSlots: 1})
		first := p.dispatch(context.Background())
		p.waitStart(t, "the first job")
		ctx, cancel := context.WithCancel(context.Background())
		queued := p.dispatch(ctx)
		waitFor(t, "the second job to queue", func() bool { return p.coord.Stats().Pending == 1 })
		cancel()
		select {
		case err := <-queued:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled dispatch returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("dispatch stayed parked after its context ended")
		}
		p.finish(t, first)
		select {
		case <-p.started:
			t.Fatal("the local slot ran a job whose dispatch was cancelled")
		case <-time.After(100 * time.Millisecond):
		}
		if st := p.coord.Stats(); st.LocalDone != 1 || st.Pending != 0 {
			t.Fatalf("local_done = %d pending = %d, want 1 and 0", st.LocalDone, st.Pending)
		}
	})

	t.Run("no capacity", func(t *testing.T) {
		p := newLocalProbe(t, Options{})
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if err := <-p.dispatch(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("dispatch with no local slots and no workers returned %v, want its context's error", err)
		}
		select {
		case <-p.started:
			t.Fatal("a job ran with no local slots")
		default:
		}
		if st := p.coord.Stats(); st.LocalDone != 0 || st.Pending != 0 {
			t.Fatalf("local_done = %d pending = %d, want 0 and 0", st.LocalDone, st.Pending)
		}
	})
}
