package cache

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// result stands in for smt.Results without importing it (cache must stay
// a leaf package); floats exercise the JSON round-trip exactness claim.
type result struct {
	IPC    float64 `json:"ipc"`
	Cycles int64   `json:"cycles"`
}

// newCacheServer serves GET/PUT /v1/cache/{key} from a Store — the same
// surface cmd/smtd exposes to workers.
func newCacheServer(t *testing.T, store *Store[result]) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := store.Get(r.PathValue("key"))
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(v)
	})
	mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		var v result
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		store.Put(r.PathValue("key"), v)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRemotePeekAndFill(t *testing.T) {
	store := New[result](0)
	srv := newCacheServer(t, store)
	remote := NewRemote[result](srv.URL+"/", nil) // trailing slash must not break paths

	if _, ok := remote.Get("missing"); ok {
		t.Fatal("peek of an empty store hit")
	}
	want := result{IPC: 3.0000000000000004, Cycles: 12345} // a float that exposes sloppy round-trips
	remote.Put("k:with/odd chars", want)
	got, ok := remote.Get("k:with/odd chars")
	if !ok || got != want {
		t.Fatalf("round-trip got %+v ok=%v, want %+v", got, ok, want)
	}
	// The fill really landed in the backing store under the same key.
	if v, ok := store.Get("k:with/odd chars"); !ok || v != want {
		t.Fatalf("backing store has %+v ok=%v", v, ok)
	}
}

func TestRemoteDegradesToMissOnFailure(t *testing.T) {
	// A dead endpoint: peeks miss, fills drop, nothing panics or hangs.
	remote := NewRemote[result]("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	remote.Put("k", result{IPC: 1})
	if _, ok := remote.Get("k"); ok {
		t.Fatal("unreachable cache reported a hit")
	}
}

// TestFlightForget: an abandoned leadership must wake waiters and let
// one of them re-lead, instead of blocking them forever behind a Put
// that will never come.
func TestFlightForget(t *testing.T) {
	f := NewFlight[result](New[result](0))
	if _, ok := f.Get("k"); ok {
		t.Fatal("empty flight hit")
	}
	// This goroutine is a waiter while the test holds leadership.
	relead := make(chan bool, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, ok := f.Get("k")
		if !ok {
			// Re-led after the Forget: fulfill the obligation.
			f.Put("k", result{IPC: 9})
			relead <- true
			return
		}
		relead <- false
		_ = v
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	f.Forget("k")
	select {
	case reled := <-relead:
		if !reled {
			t.Fatal("waiter got a value from a forgotten key")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after Forget")
	}
	wg.Wait()
	if v, ok := f.Get("k"); !ok || v.IPC != 9 {
		t.Fatalf("re-led value not stored: %+v ok=%v", v, ok)
	}
	// Forgetting keys with no in-flight computation is a no-op.
	f.Forget("k")
	f.Forget("never-seen")
}

// TestFlightGetCtxCancelledWaiter: a waiter blocked behind another
// caller's in-flight computation abandons the wait when its context
// ends, without taking leadership.
func TestFlightGetCtxCancelledWaiter(t *testing.T) {
	f := NewFlight[result](New[result](0))
	if _, ok := f.Get("k"); ok { // the test is now the leader of "k"
		t.Fatal("empty flight hit")
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := f.GetCtx(ctx, "k")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter ignored its cancelled context")
	}
	// The cancelled waiter took no leadership: the real leader's Put must
	// still be the one that lands, and later Gets hit.
	f.Put("k", result{IPC: 4})
	if v, ok := f.Get("k"); !ok || v.IPC != 4 {
		t.Fatalf("leader's Put lost: %+v ok=%v", v, ok)
	}
}

// TestRemoteWithContextCancelled: a client bound to a context that ends
// mid-peek aborts the peek to a miss at once instead of riding out the
// client timeout, and drops a later fill without touching the wire; an
// unbound client still fills.
func TestRemoteWithContextCancelled(t *testing.T) {
	block := make(chan struct{})
	var puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			puts.Add(1)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		<-block // hang GETs until test end
	}))
	t.Cleanup(func() { close(block); srv.Close() })

	client := &http.Client{Timeout: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	remote := NewRemote[result](srv.URL, client).WithContext(ctx)
	done := make(chan bool, 1)
	go func() {
		_, ok := remote.Get("k")
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond) // let the request park in the handler
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("hanging server produced a hit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get ignored its cancelled context (rode the client timeout)")
	}

	// A fill under the dead context is dropped before any network traffic.
	remote.Put("k", result{IPC: 1})
	if puts.Load() != 0 {
		t.Fatalf("cancelled Put reached the server %d times", puts.Load())
	}
	// A client without a bound context still fills.
	NewRemote[result](srv.URL, client).Put("k", result{IPC: 1})
	if puts.Load() != 1 {
		t.Fatalf("live Put landed %d times, want 1", puts.Load())
	}
}
