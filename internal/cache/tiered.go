package cache

// TieredStats snapshots every tier of a Tiered cache; Disk is nil without
// a disk tier. smtd's /metrics emits one series per field, under the
// cache's prefix.
type TieredStats struct {
	Memory Stats
	Disk   *DiskStats
}

// Tiered layers a bounded in-memory LRU over an optional durable disk
// store: Gets hit memory first and fall through to disk (promoting the
// value back into memory), Puts write through to both. The LRU bounds RSS
// while the disk tier holds the full result history, so a restarted
// process — fresh, empty LRU, and a disk tier that read nothing at boot —
// still serves every previously computed result, paying one file read per
// first touch instead of a re-simulation.
//
// smtd builds one twice — simulation results and warmup checkpoints — and
// everything above (singleflight, the snapshot counting store, the HTTP
// handlers, /metrics) sees only the Getter and one TieredStats.
type Tiered[V any] struct {
	front *Store[V]
	back  *Disk[V] // nil: memory only
}

// NewTiered layers front (the in-memory LRU) over back (the disk tier);
// a nil back makes the cache memory only.
func NewTiered[V any](front *Store[V], back *Disk[V]) *Tiered[V] {
	return &Tiered[V]{front: front, back: back}
}

// Get returns the value under key from the fastest tier holding it; a
// disk hit is promoted into the memory tier.
func (t *Tiered[V]) Get(key string) (V, bool) {
	if v, ok := t.front.Get(key); ok {
		return v, true
	}
	if t.back != nil {
		if v, ok := t.back.Get(key); ok {
			t.front.Put(key, v)
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Put writes through every tier: durable on disk, hot in memory.
func (t *Tiered[V]) Put(key string, v V) {
	if t.back != nil {
		t.back.Put(key, v)
	}
	t.front.Put(key, v)
}

// Stats snapshots every configured tier.
func (t *Tiered[V]) Stats() TieredStats {
	st := TieredStats{Memory: t.front.Stats()}
	if t.back != nil {
		ds := t.back.Stats()
		st.Disk = &ds
	}
	return st
}
