package snapshot

import (
	"sync"
	"testing"
)

// mapBacking is the simplest Backing: an unbounded map.
type mapBacking struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *mapBacking) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBacking) Put(key string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = data
}

func TestStoreCountsTraffic(t *testing.T) {
	s := NewStore(&mapBacking{m: map[string][]byte{}})
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store served a hit")
	}
	s.Put("a", []byte("12345"))
	got, ok := s.Get("a")
	if !ok || string(got) != "12345" {
		t.Fatalf("Get after Put = %q, %v", got, ok)
	}
	st := s.Stats()
	want := Stats{Hits: 1, Misses: 1, Puts: 1, BytesLoaded: 5, BytesStored: 5}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}
