// Package snapshot accelerates experiment sweeps with two shared,
// determinism-preserving layers:
//
//   - Warmup checkpoints: the complete warmed machine state of one
//     (config, rotation, seed, warmup) point, serialized by
//     smt.Simulator.SaveSnapshot and stored content-addressed under a Key.
//     Every grid point sharing the prefix restores instead of re-warming;
//     tiering the backing store through internal/cache (memory, disk,
//     federation peers) extends the reuse to distributed workers and
//     restarted coordinators.
//
//   - Trace replay: each workload rotation pre-decoded once per sweep into
//     an immutable smt.TraceSet shared read-only by every configuration
//     and goroutine (see TraceCache), replacing the per-run walker in the
//     fetch hot path.
//
// Both layers are byte-identical by construction: a restored or replayed
// run commits exactly the cycles a cold run would, so acceleration never
// changes result bytes — the same property the result cache leans on.
package snapshot

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/smt"
)

// KeyPrefix marks snapshot entries in a keyspace shared with simulation
// results (smtd's /v1/cache/{key} endpoint routes on it).
const KeyPrefix = "snap:"

// Key derives the content address of one warmup checkpoint. The
// fingerprint is the FULL configuration fingerprint — warmed state depends
// on every configuration field — and the serialization version is baked
// in so a format change misses instead of failing restores.
func Key(fingerprint string, rotation int, seed uint64, warmup int64) string {
	return fmt.Sprintf("%sv%d:%s:r%d:s%d:w%d", KeyPrefix, smt.SnapshotVersion, fingerprint, rotation, seed, warmup)
}

// Backing is the tier stack a Store counts on top of: the tree's one
// Get/Put contract at []byte, which every internal/cache store satisfies.
type Backing = cache.Getter[[]byte]

// Stats snapshots a Store's effectiveness counters.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	BytesLoaded int64 `json:"bytes_loaded"` // snapshot bytes served by Get hits
	BytesStored int64 `json:"bytes_stored"` // snapshot bytes written by Put
}

// Store counts snapshot traffic over a backing tier stack. It satisfies
// the experiment runner's SnapshotStore seam; corrupt or truncated entries
// are the tiers' concern (cache.Disk verifies checksums and serves bad
// files as misses), so everything reaching Get's hit path is intact bytes.
type Store struct {
	b Backing

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	bytesLoaded atomic.Int64
	bytesStored atomic.Int64
}

// NewStore counts snapshot traffic over b.
func NewStore(b Backing) *Store { return &Store{b: b} }

// Get returns the snapshot stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	data, ok := s.b.Get(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	s.bytesLoaded.Add(int64(len(data)))
	return data, true
}

// Put stores a snapshot under key.
func (s *Store) Put(key string, data []byte) {
	s.puts.Add(1)
	s.bytesStored.Add(int64(len(data)))
	s.b.Put(key, data)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		BytesLoaded: s.bytesLoaded.Load(),
		BytesStored: s.bytesStored.Load(),
	}
}

// defaultTraceBytes bounds a TraceCache built with no explicit budget.
// Traces are per-(rotation, seed) and shared by the whole sweep, so a
// handful of rotations fit; gigantic budgets would just trade RSS for
// rebuilds the cursor spill already makes cheap.
const defaultTraceBytes = 256 << 20

// TraceStats snapshots a TraceCache's counters.
type TraceStats struct {
	Builds    int64 `json:"builds"` // trace sets decoded from scratch
	Reuses    int64 `json:"reuses"` // lookups served by an existing set
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// TraceCache builds each workload rotation's smt.TraceSet once and shares
// it across every configuration and goroutine of a sweep, bounded by a
// byte budget with least-recently-used eviction. Concurrent lookups of the
// same rotation block on one build instead of decoding in parallel.
type TraceCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	builds    int64
	reuses    int64
	evictions int64
}

// traceEntry is one cache slot. ts/err are published by once; done and
// bytes are guarded by the cache mutex so eviction never touches a set
// still being built.
type traceEntry struct {
	key  string
	once sync.Once
	ts   *smt.TraceSet
	err  error

	done  bool
	bytes int64
}

// NewTraceCache returns a cache bounded at maxBytes of trace records
// (<= 0 means the default budget).
func NewTraceCache(maxBytes int64) *TraceCache {
	if maxBytes <= 0 {
		maxBytes = defaultTraceBytes
	}
	return &TraceCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func traceKey(spec smt.WorkloadSpec, perThread int64) string {
	return strings.Join(spec.Names, ",") + fmt.Sprintf("|s%d|n%d", spec.Seed, perThread)
}

// Get returns the trace set for spec, building it on first use. Identical
// concurrent lookups share one build.
func (c *TraceCache) Get(spec smt.WorkloadSpec, perThread int64) (*smt.TraceSet, error) {
	key := traceKey(spec, perThread)
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
		c.reuses++
	} else {
		el = c.ll.PushFront(&traceEntry{key: key})
		c.items[key] = el
	}
	ent := el.Value.(*traceEntry)
	c.mu.Unlock()

	ent.once.Do(func() {
		ent.ts, ent.err = smt.BuildTraceSet(spec, perThread)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.builds++
		ent.done = true
		if ent.err != nil {
			// A failed build holds no bytes and should not be pinned: drop
			// it so a later (corrected) spec is not served the stale error.
			c.removeLocked(ent)
			return
		}
		ent.bytes = ent.ts.Bytes()
		c.bytes += ent.bytes
		c.evictLocked(ent)
	})
	return ent.ts, ent.err
}

// evictLocked drops least-recently-used built entries until the budget
// holds, never touching keep (the entry just built) or unbuilt entries.
func (c *TraceCache) evictLocked(keep *traceEntry) {
	for el := c.ll.Back(); el != nil && c.bytes > c.maxBytes; {
		prev := el.Prev()
		ent := el.Value.(*traceEntry)
		if ent != keep && ent.done {
			c.removeLocked(ent)
			c.evictions++
		}
		el = prev
	}
}

// removeLocked detaches one entry from the index and byte accounting.
func (c *TraceCache) removeLocked(ent *traceEntry) {
	if el, ok := c.items[ent.key]; ok && el.Value.(*traceEntry) == ent {
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.bytes -= ent.bytes
	}
}

// Stats returns a snapshot of the cache's counters.
func (c *TraceCache) Stats() TraceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TraceStats{
		Builds:    c.builds,
		Reuses:    c.reuses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
