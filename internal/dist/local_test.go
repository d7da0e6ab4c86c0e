package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/smt"
)

// localProbe is a coordinator whose Exec reports how many LocalSlots
// tokens are held while it runs, then parks until the test lets it go.
type localProbe struct {
	coord   *Coordinator
	url     string
	slots   chan struct{}
	held    chan int      // len(slots) observed from inside each Exec
	release chan struct{} // one receive per Exec
}

func newLocalProbe(t *testing.T, opts Options) *localProbe {
	p := &localProbe{
		slots:   make(chan struct{}, 2),
		held:    make(chan int, 8),
		release: make(chan struct{}, 8),
	}
	opts.LocalSlots = p.slots
	opts.Exec = func(JobPayload, func(smt.Snapshot)) smt.Results {
		p.held <- len(p.slots)
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

// finishOne checks that the one local execution now running holds exactly
// one token, lets it finish, and checks the token came back.
func (p *localProbe) finishOne(t *testing.T, errc <-chan error, wantLocalDone int64) {
	t.Helper()
	select {
	case n := <-p.held:
		if n != 1 {
			t.Fatalf("local execution ran with %d slot token(s) held, want exactly 1", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached local execution")
	}
	p.release <- struct{}{}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never returned")
	}
	// The requeue fallback delivers from its own goroutine, a moment before
	// that goroutine returns its token.
	waitFor(t, "the slot token to come back", func() bool { return len(p.slots) == 0 })
	if st := p.coord.Stats(); st.LocalDone != wantLocalDone || st.RemoteDone != 0 {
		t.Fatalf("local_done = %d remote_done = %d, want %d and 0", st.LocalDone, st.RemoteDone, wantLocalDone)
	}
}

// phantom registers a worker over HTTP that never polls on its own, and
// returns its id.
func (p *localProbe) phantom(t *testing.T) string {
	t.Helper()
	resp, err := http.Post(p.url+"/v1/workers", "application/json", bytes.NewReader([]byte(`{"name":"phantom","slots":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	return reg.WorkerID
}

// TestLocalRouteHoldsOneSlot: the coordinator's three local situations —
// no fleet, backlog spill, requeue after MaxAttempts — each run their job
// under exactly one LocalSlots token and return it, and a dispatch whose
// context ends while it waits for a token takes none and runs nothing.
func TestLocalRouteHoldsOneSlot(t *testing.T) {
	t.Run("no workers", func(t *testing.T) {
		p := newLocalProbe(t, Options{})
		p.finishOne(t, p.dispatch(context.Background()), 1)
	})

	t.Run("backlog spill", func(t *testing.T) {
		p := newLocalProbe(t, Options{})
		p.phantom(t)
		// The first job queues for the one-slot fleet and fills its backlog;
		// the second finds pending >= capacity and a free local slot.
		qctx, cancelQueued := context.WithCancel(context.Background())
		queued := p.dispatch(qctx)
		waitFor(t, "first job to queue", func() bool { return p.coord.Stats().Pending == 1 })
		p.finishOne(t, p.dispatch(context.Background()), 1)

		// With every local slot taken, a spill candidate queues instead of
		// waiting for one.
		p.slots <- struct{}{}
		p.slots <- struct{}{}
		full := p.dispatch(qctx)
		waitFor(t, "job to queue past the full local slots", func() bool { return p.coord.Stats().Pending == 2 })
		cancelQueued()
		for _, errc := range []<-chan error{queued, full} {
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled queued dispatch returned %v", err)
			}
		}
		if n := len(p.slots); n != 2 {
			t.Fatalf("queued dispatches changed the held slot count to %d", n)
		}
	})

	t.Run("requeue after MaxAttempts", func(t *testing.T) {
		p := newLocalProbe(t, Options{MaxAttempts: 1, LeaseTTL: 200 * time.Millisecond, SweepEvery: 20 * time.Millisecond})
		id := p.phantom(t)
		errc := p.dispatch(context.Background())
		waitFor(t, "job to queue", func() bool { return p.coord.Stats().Pending == 1 })
		// Lease it once and go silent: the lease expires, the job has used
		// its one remote attempt, and the janitor sends it local.
		body, _ := json.Marshal(PollRequest{WorkerID: id, Max: 1})
		resp, err := http.Post(p.url+"/v1/work/next", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll answered %d, want a lease", resp.StatusCode)
		}
		p.finishOne(t, errc, 1)
		if st := p.coord.Stats(); st.Requeues != 1 {
			t.Fatalf("requeues = %d, want 1", st.Requeues)
		}
	})

	t.Run("cancelled while waiting", func(t *testing.T) {
		p := newLocalProbe(t, Options{})
		p.slots <- struct{}{} // other tenants hold both slots
		p.slots <- struct{}{}
		ctx, cancel := context.WithCancel(context.Background())
		errc := p.dispatch(ctx)
		waitFor(t, "dispatch to start", func() bool { return p.coord.Stats().Dispatched == 1 })
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled dispatch returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("dispatch stayed parked on the slot wait after its context ended")
		}
		<-p.slots
		<-p.slots
		select {
		case <-p.held:
			t.Fatal("a cancelled dispatch ran its job once a slot came free")
		case <-time.After(100 * time.Millisecond):
		}
		if st := p.coord.Stats(); st.LocalDone != 0 {
			t.Fatalf("local_done = %d after a cancelled dispatch", st.LocalDone)
		}
	})
}
