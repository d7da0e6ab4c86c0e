package cache

// Tiered layers a bounded in-memory LRU over a durable disk store: Gets
// hit memory first and fall through to disk (promoting the value back
// into memory), Puts write through to both. The LRU bounds RSS while the
// disk tier holds the full result history, so a restarted process —
// fresh, empty LRU — still serves every previously computed result, paying
// one file read per first touch instead of a re-simulation.
type Tiered[V any] struct {
	front *Store[V]
	back  *Disk[V]
}

// NewTiered layers front (the in-memory LRU) over back (the disk tier).
func NewTiered[V any](front *Store[V], back *Disk[V]) *Tiered[V] {
	return &Tiered[V]{front: front, back: back}
}

// Get returns the value under key from the fastest tier holding it; a
// disk hit is promoted into the memory tier.
func (t *Tiered[V]) Get(key string) (V, bool) {
	if v, ok := t.front.Get(key); ok {
		return v, true
	}
	if v, ok := t.back.Get(key); ok {
		t.front.Put(key, v)
		return v, true
	}
	var zero V
	return zero, false
}

// Put writes through both tiers: durable on disk, hot in memory.
func (t *Tiered[V]) Put(key string, v V) {
	t.back.Put(key, v)
	t.front.Put(key, v)
}
