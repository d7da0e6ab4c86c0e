package cache

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// keyOwnedBy finds a key the given member owns; prefix keeps tests from
// colliding on promoted state.
func keyOwnedBy(f *Federated[result], member, prefix string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s%03d", prefix, i)
		if f.Owner(k) == member {
			return k
		}
	}
}

// TestFederatedFillsCountedOnlyWhenAcknowledged: the old Put counted a
// peerFill even when the forward never landed; now peer_fills means the
// owner acknowledged and failures land in peer_fill_failures.
func TestFederatedFillsCountedOnlyWhenAcknowledged(t *testing.T) {
	dead := "http://127.0.0.1:1"
	f := NewFederated[result](New[result](0), "http://127.0.0.1:9", []string{dead},
		FederatedConfig{
			Client:     &http.Client{Timeout: 250 * time.Millisecond},
			FillPolicy: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		})
	defer f.Close()

	const fills = 4
	for i := 0; i < fills; i++ {
		f.Put(keyOwnedBy(f, dead, fmt.Sprintf("deadfill%d-", i)), result{IPC: 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.PeerFills != 0 {
		t.Fatalf("counted %d fills against a dead owner, want 0", st.PeerFills)
	}
	// The default breaker trips after 3 consecutive failures, so the tail
	// of the burst is refused without touching the network; every forward
	// still lands in the failure counter.
	if st.PeerFillFailures != fills {
		t.Fatalf("peer_fill_failures = %d, want %d", st.PeerFillFailures, fills)
	}

	// Against a live owner the same fills are acknowledged and counted.
	var acked atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			acked.Add(1)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer srv.Close()
	g := NewFederated[result](New[result](0), "http://127.0.0.1:9", []string{srv.URL}, FederatedConfig{})
	defer g.Close()
	g.Put(keyOwnedBy(g, srv.URL, "livefill-"), result{IPC: 2})
	if err := g.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.PeerFills != 1 || st.PeerFillFailures != 0 || acked.Load() != 1 {
		t.Fatalf("live fill stats %+v acked=%d, want exactly one acknowledged fill", st, acked.Load())
	}

	// A rejected fill (server said no) is a failure, not a fill.
	rej := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInsufficientStorage)
	}))
	defer rej.Close()
	h := NewFederated[result](New[result](0), "http://127.0.0.1:9", []string{rej.URL},
		FederatedConfig{FillPolicy: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond}})
	defer h.Close()
	h.Put(keyOwnedBy(h, rej.URL, "rejfill-"), result{IPC: 3})
	if err := h.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.PeerFills != 0 || st.PeerFillFailures != 1 {
		t.Fatalf("rejected fill stats %+v, want 0 fills / 1 failure", st)
	}
}

// TestFederatedFillQueueShedsWhenFull: a stalled owner must never stall
// the caller — once the bounded queue is full, new fills drop and are
// counted.
func TestFederatedFillQueueShedsWhenFull(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // wedge every forward until test end
	}))
	defer srv.Close()
	defer close(release)

	f := NewFederated[result](New[result](0), "http://127.0.0.1:9", []string{srv.URL},
		FederatedConfig{
			Client:     &http.Client{Timeout: 30 * time.Second},
			FillQueue:  2,
			FillPolicy: resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		})
	defer f.Close()

	start := time.Now()
	const puts = 16
	for i := 0; i < puts; i++ {
		f.Put(keyOwnedBy(f, srv.URL, fmt.Sprintf("shed%d-", i)), result{IPC: 1})
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("%d Puts against a wedged owner took %v; forwarding is back on the caller's path", puts, elapsed)
	}
	if st := f.Stats(); st.PeerFillDropped == 0 {
		t.Fatalf("no drops counted after %d puts into a capacity-2 queue: %+v", puts, st)
	}
	if v, ok := f.Get(keyOwnedBy(f, srv.URL, "shed0-")); !ok || v.IPC != 1 {
		t.Fatalf("local tier lost a shed fill's value: %+v ok=%v", v, ok)
	}
}

// TestFederatedBreakerMakesDownOwnerInstant: after the breaker trips,
// probes to a down owner stop touching the network and answer as
// instant local misses; stats surface the open breaker.
func TestFederatedBreakerMakesDownOwnerInstant(t *testing.T) {
	dead := "http://127.0.0.1:1"
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	f := NewFederated[result](New[result](0), "http://127.0.0.1:9", []string{dead},
		FederatedConfig{
			Client:   &http.Client{Timeout: 2 * time.Second},
			Breakers: breakers,
		})
	defer f.Close()

	// Two probes trip the threshold-2 breaker...
	for i := 0; i < 2; i++ {
		if _, ok := f.Get(keyOwnedBy(f, dead, fmt.Sprintf("trip%d-", i))); ok {
			t.Fatal("dead peer served a hit")
		}
	}
	if got := breakers.Get(dead).State(); got != resilience.Open {
		t.Fatalf("breaker state after threshold failures = %v, want open", got)
	}
	// ...and the next 50 misses must be instant: no network attempt can
	// take 50 probes x connect-timeout if the breaker short-circuits.
	start := time.Now()
	for i := 0; i < 50; i++ {
		if _, ok := f.Get(keyOwnedBy(f, dead, fmt.Sprintf("fast%d-", i))); ok {
			t.Fatal("dead peer served a hit")
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("50 probes behind an open breaker took %v; they are hitting the network", elapsed)
	}
	st := f.Stats()
	if st.PeerSkipped < 50 {
		t.Fatalf("peer_breaker_skips = %d, want >= 50", st.PeerSkipped)
	}
	var found bool
	for _, b := range st.Breakers {
		if b.Peer == dead && b.State == "open" && b.Opens >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("open breaker for %s not surfaced in PeerStats: %+v", dead, st.Breakers)
	}
}

// TestFederatedBreakerRecovers: a peer that comes back is rediscovered
// by the half-open probe and traffic resumes.
func TestFederatedBreakerRecovers(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNotFound) // alive: clean miss
	}))
	defer srv.Close()

	clk := time.Unix(1000, 0)
	var clkMu atomic.Int64
	now := func() time.Time { return clk.Add(time.Duration(clkMu.Load())) }
	breakers := resilience.NewBreakerSet(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Minute, Now: now})
	f := NewFederated[result](New[result](0), "http://127.0.0.1:9", []string{srv.URL},
		FederatedConfig{Breakers: breakers})
	defer f.Close()

	k := keyOwnedBy(f, srv.URL, "recover-")
	f.Get(k) // 500 → failure → breaker opens (threshold 1)
	if got := breakers.Get(srv.URL).State(); got != resilience.Open {
		t.Fatalf("state = %v, want open after a 5xx probe", got)
	}
	down.Store(false)
	f.Get(k) // still inside cooldown: skipped, stays open
	if got := breakers.Get(srv.URL).State(); got != resilience.Open {
		t.Fatalf("state = %v, want open inside cooldown", got)
	}
	clkMu.Store(int64(2 * time.Minute)) // cooldown elapses
	f.Get(k)                            // half-open probe → clean miss → closes
	if got := breakers.Get(srv.URL).State(); got != resilience.Closed {
		t.Fatalf("state = %v, want closed after a successful probe", got)
	}
}
