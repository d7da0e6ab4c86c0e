// Package cache provides the simulation service's content-addressed
// result store: a bounded LRU map from content addresses (keys built on
// core.Config.Fingerprint) to results, plus an in-flight deduplication
// wrapper (Flight) so concurrent callers compute each address once.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a snapshot of a store's effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
	Cap       int
}

// Store is a bounded, concurrency-safe LRU map from content-address keys
// (see Fingerprint) to values. A zero capacity means unbounded.
type Store[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type entry[V any] struct {
	key string
	val V
}

// New returns a store holding at most capacity entries; capacity <= 0
// means unbounded.
func New[V any](capacity int) *Store[V] {
	return &Store[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (s *Store[V]) Get(key string) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*entry[V]).val, true
	}
	s.misses++
	var zero V
	return zero, false
}

// Put stores val under key, replacing any existing entry, and evicts the
// least recently used entry when over capacity.
func (s *Store[V]) Put(key string, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry[V]).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&entry[V]{key: key, val: val})
	if s.cap > 0 && s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry[V]).key)
		s.evictions++
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store[V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Len:       s.ll.Len(),
		Cap:       s.cap,
	}
}
