package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightDedupesConcurrentMisses: N concurrent callers racing on one
// key produce exactly one leader (miss); everyone else blocks until the
// leader Puts and then observes a hit with the leader's value.
func TestFlightDedupesConcurrentMisses(t *testing.T) {
	f := NewFlight[int](New[int](0))
	const callers = 8
	var leaders, hits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ok := f.Get("k")
			if !ok {
				leaders.Add(1)
				time.Sleep(10 * time.Millisecond) // simulate the computation
				f.Put("k", 42)
				return
			}
			if v != 42 {
				t.Errorf("waiter got %d, want the leader's 42", v)
			}
			hits.Add(1)
		}()
	}
	wg.Wait()
	if leaders.Load() != 1 || hits.Load() != callers-1 {
		t.Fatalf("%d leaders / %d hits, want 1 / %d", leaders.Load(), hits.Load(), callers-1)
	}
}

// TestFlightReleadsAfterEviction: if the store evicts a key after its
// flight completes, the next Get becomes a fresh leader instead of
// blocking forever.
func TestFlightReleadsAfterEviction(t *testing.T) {
	inner := New[int](1)
	f := NewFlight[int](inner)
	if _, ok := f.Get("a"); ok {
		t.Fatal("unexpected hit")
	}
	f.Put("a", 1)
	f.Put("b", 2) // capacity 1: evicts "a"
	if _, ok := f.Get("a"); ok {
		t.Fatal("evicted key reported a hit")
	}
	f.Put("a", 3)
	if v, ok := f.Get("a"); !ok || v != 3 {
		t.Fatalf("re-led key: %d, %v", v, ok)
	}
}

// TestFlightDistinctKeysIndependent: leadership on one key must not block
// Gets for another.
func TestFlightDistinctKeysIndependent(t *testing.T) {
	f := NewFlight[int](New[int](0))
	if _, ok := f.Get("x"); ok {
		t.Fatal("unexpected hit")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := f.Get("y"); ok {
			t.Error("unexpected hit on y")
		}
		f.Put("y", 2)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Get(y) blocked behind the in-flight x")
	}
	f.Put("x", 1)
}

// TestGetCtxForgetUpgrade: Flight's own cancellable wait and leader
// release. A lookup behind another caller's leadership abandons the wait
// when its ctx ends, taking no leadership; Forget wakes the waiters and
// the next lookup leads. (Which caches the runner asks through this
// upgrade is exp's TestRunnerCacheSeam.)
func TestGetCtxForgetUpgrade(t *testing.T) {
	t.Run("flight", func(t *testing.T) {
		f := NewFlight[int](New[int](0))
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		type result struct {
			v   int
			ok  bool
			err error
		}
		// lookup runs GetCtx off the test goroutine so a hang is observable.
		lookup := func(ctx context.Context) <-chan result {
			ch := make(chan result, 1)
			go func() {
				v, ok, err := f.GetCtx(ctx, "k")
				ch <- result{v, ok, err}
			}()
			return ch
		}
		await := func(ch <-chan result) result {
			t.Helper()
			select {
			case r := <-ch:
				return r
			case <-time.After(5 * time.Second):
				t.Fatal("lookup hung")
				return result{}
			}
		}

		// A miss is a miss with no error, and makes this caller the leader.
		if r := await(lookup(context.Background())); r.ok || r.err != nil {
			t.Fatalf("first lookup: %+v", r)
		}
		// A second lookup under a dead context abandons the wait.
		if r := await(lookup(cancelled)); !errors.Is(r.err, context.Canceled) || r.ok {
			t.Fatalf("cancelled wait: %+v, want context.Canceled", r)
		}
		// A live one waits until the leader Forgets, then leads in turn.
		waiting := lookup(context.Background())
		select {
		case r := <-waiting:
			t.Fatalf("lookup behind a leader returned %+v", r)
		case <-time.After(20 * time.Millisecond):
		}
		f.Forget("k")
		if r := await(waiting); r.ok || r.err != nil {
			t.Fatalf("after Forget: %+v, want a fresh miss", r)
		}
		f.Put("k", 7)
		if r := await(lookup(cancelled)); !r.ok || r.v != 7 || r.err != nil {
			t.Fatalf("stored key: %+v", r)
		}
		f.Forget("absent") // no in-flight computation: a no-op
	})
}
