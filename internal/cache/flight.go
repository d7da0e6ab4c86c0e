package cache

import (
	"context"
	"sync"
)

// Flight adds in-flight deduplication (singleflight) to a store: when one
// caller misses on a key, subsequent Gets for the same key block until
// that caller Puts, then return the stored value as a hit — so N
// concurrent identical sweeps compute each key once instead of N times.
//
// The protocol matches the runner's usage exactly: a caller whose Get
// returns false is the key's leader and MUST eventually Put it; callers
// that Get a hit need not do anything. Deadlock-free under a shared
// concurrency semaphore because a leader never waits on other keys while
// it holds leadership.
type Flight[V any] struct {
	inner Getter[V]

	mu       sync.Mutex
	inflight map[string]chan struct{}
}

// NewFlight wraps inner with in-flight deduplication.
func NewFlight[V any](inner Getter[V]) *Flight[V] {
	return &Flight[V]{inner: inner, inflight: make(map[string]chan struct{})}
}

// Get returns the value for key, waiting for an in-flight computation of
// the same key to finish rather than reporting a duplicate miss. A false
// return makes the caller the key's leader, obligated to Put.
func (f *Flight[V]) Get(key string) (V, bool) {
	v, ok, _ := f.GetCtx(context.Background(), key)
	return v, ok
}

// GetCtx is Get with a cancellable wait: a caller blocked behind another
// caller's in-flight computation abandons the wait when ctx ends and
// returns ctx's error. In-flight waits can be long — with distributed
// execution a leader's computation spans worker scheduling, lease
// expiries, and requeues — and a cancelled sweep must not sit them out.
// An error return takes no leadership and creates no obligation; only a
// (zero, false, nil) return makes the caller the key's leader.
func (f *Flight[V]) GetCtx(ctx context.Context, key string) (V, bool, error) {
	var zero V
	for {
		if v, ok := f.inner.Get(key); ok {
			return v, true, nil
		}
		f.mu.Lock()
		ch, ok := f.inflight[key]
		if !ok {
			// The previous leader may have Put (store write, then inflight
			// delete) between our store miss and taking the lock; re-check
			// before claiming leadership or we'd recompute a cached key.
			if v, cached := f.inner.Get(key); cached {
				f.mu.Unlock()
				return v, true, nil
			}
			f.inflight[key] = make(chan struct{})
			f.mu.Unlock()
			return zero, false, nil // caller is the leader for this key
		}
		f.mu.Unlock()
		select {
		case <-ch: // leader finished; retry the store (re-lead if evicted)
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
}

// Put stores the value and releases every waiter blocked on the key.
func (f *Flight[V]) Put(key string, v V) {
	f.inner.Put(key, v)
	f.mu.Lock()
	if ch, ok := f.inflight[key]; ok {
		delete(f.inflight, key)
		close(ch)
	}
	f.mu.Unlock()
}

// Forget abandons leadership of key without storing a value: every waiter
// wakes, retries the store, misses, and one of them re-leads. A leader
// whose computation failed or was cancelled MUST call Forget (instead of
// Put) or its waiters block forever. Forgetting a key with no in-flight
// computation is a no-op.
func (f *Flight[V]) Forget(key string) {
	f.mu.Lock()
	if ch, ok := f.inflight[key]; ok {
		delete(f.inflight, key)
		close(ch)
	}
	f.mu.Unlock()
}
