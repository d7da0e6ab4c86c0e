package cache

import (
	"context"
	"errors"
	"testing"
	"time"
)

// getPutOnly hides everything but Get/Put of the store it wraps — the shape
// of a caller-side instrumenting wrapper (bench/'s traced cache).
type getPutOnly[V any] struct{ inner Getter[V] }

func (w getPutOnly[V]) Get(key string) (V, bool) { return w.inner.Get(key) }
func (w getPutOnly[V]) Put(key string, v V)      { w.inner.Put(key, v) }

// TestGetCtxForgetUpgrade: the one upgrade point serves a plain store, a
// Flight, and a Flight hidden behind a Get/Put-only wrapper. The upgrade
// applies exactly when the value itself offers it; otherwise the calls
// degrade to plain Get/Put and a no-op — never a panic or a hang.
func TestGetCtxForgetUpgrade(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type result struct {
		v   int
		ok  bool
		err error
	}
	// lookup runs GetCtx off the test goroutine so a hang is observable.
	lookup := func(ctx context.Context, g Getter[int]) <-chan result {
		ch := make(chan result, 1)
		go func() {
			v, ok, err := GetCtx(ctx, g, "k")
			ch <- result{v, ok, err}
		}()
		return ch
	}
	await := func(t *testing.T, ch <-chan result) result {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("lookup hung")
			return result{}
		}
	}
	stillWaiting := func(t *testing.T, ch <-chan result, why string) {
		t.Helper()
		select {
		case r := <-ch:
			t.Fatalf("%s: lookup returned %+v", why, r)
		case <-time.After(20 * time.Millisecond):
		}
	}

	for _, tc := range []struct {
		name     string
		g        Getter[int]
		upgraded bool // GetCtx honors ctx and Forget releases leadership
		hidden   bool // a Flight is in there, but out of the upgrade's reach
	}{
		{name: "store", g: New[int](0)},
		{name: "flight", g: NewFlight[int](New[int](0)), upgraded: true},
		{name: "wrapped flight", g: getPutOnly[int]{NewFlight[int](New[int](0))}, hidden: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A miss is a miss with no error; on a Flight (wrapped or not)
			// it also makes this caller the key's leader.
			if r := await(t, lookup(context.Background(), tc.g)); r.ok || r.err != nil {
				t.Fatalf("first lookup: %+v", r)
			}
			// A second lookup, under a dead context.
			second := lookup(cancelled, tc.g)
			switch {
			case tc.upgraded: // the wait is abandoned with ctx's error
				if r := await(t, second); !errors.Is(r.err, context.Canceled) || r.ok {
					t.Fatalf("cancelled wait: %+v, want context.Canceled", r)
				}
			case tc.hidden: // plain Get: waits for the leader, ctx or not
				stillWaiting(t, second, "plain Get behind a leader")
				Forget(tc.g, "k") // cannot reach the Flight: a no-op
				stillWaiting(t, second, "Forget through a Get/Put-only wrapper")
				tc.g.Put("k", 7)
				if r := await(t, second); !r.ok || r.v != 7 || r.err != nil {
					t.Fatalf("waiter after the leader's Put: %+v, want a hit on 7", r)
				}
				return
			default: // a plain store: a plain miss
				if r := await(t, second); r.ok || r.err != nil {
					t.Fatalf("plain store: %+v, want a plain miss", r)
				}
			}
			// Forget: the released leader's successor leads in turn (a
			// miss, not a wait); on a plain store it changes nothing.
			Forget(tc.g, "k")
			if r := await(t, lookup(context.Background(), tc.g)); r.ok || r.err != nil {
				t.Fatalf("after Forget: %+v, want a fresh miss", r)
			}
			tc.g.Put("k", 7)
			if r := await(t, lookup(cancelled, tc.g)); !r.ok || r.v != 7 || r.err != nil {
				t.Fatalf("stored key: %+v", r)
			}
		})
	}

	// A Runner with no Cache passes a nil Getter; Forget on it is a no-op.
	Forget[int](nil, "k")
}
