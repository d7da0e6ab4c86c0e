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
//   - Trace replay: each hardware context's program pre-decoded once into
//     an immutable trace shared read-only by every configuration, machine
//     width and goroutine that runs it (see TraceCache), replacing the
//     per-run walker in the fetch hot path.
//
// Both layers are byte-identical by construction: a restored or replayed
// run commits exactly the cycles a cold run would, so acceleration never
// changes result bytes — the same property the result cache leans on.
package snapshot

import (
	"container/list"
	"fmt"
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

// traceGranule is the unit trace lengths round up to, in records. With
// every length a multiple of it, sweeps whose budgets differ a little ask
// for the same trace, and one that asks for more lands on a length the
// next few budgets up share.
const traceGranule = 64 << 10

// defaultTraceBytes bounds a TraceCache built with no explicit budget.
// Traces are per-(benchmark, seed, context) and shared by every width and
// configuration of a sweep; at 12 bytes a record 64 MiB holds 85 granules
// — five seeds of the eight-context rotation at the two granules a
// 90k-instruction budget rounds to — so a handful of rotations fit;
// gigantic budgets would just trade RSS for rebuilds the cursor spill
// already makes cheap.
const defaultTraceBytes = 64 << 20

// TraceStats snapshots a TraceCache's counters.
type TraceStats struct {
	Builds    int64 `json:"builds"` // context traces decoded from scratch
	Reuses    int64 `json:"reuses"` // context lookups served by an existing trace
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"` // context traces currently cached
	Bytes     int64 `json:"bytes"`
}

// TraceCache builds each hardware context's trace once and assembles every
// job's smt.TraceSet from the shared context traces, bounded by a byte
// budget with least-recently-used eviction. An entry is keyed by
// (benchmark, seed, context) — what the context's program is a function of
// — so the T-thread and the 8-thread machine of one rotation replay the
// same first T traces. Lengths round up to traceGranule and a cached trace
// at least as long as the request serves it; a longer request builds a new
// trace that supersedes the shorter entry. Concurrent lookups of the same
// context block on one build instead of decoding in parallel.
type TraceCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[contextKey]*list.Element

	builds    int64
	reuses    int64
	evictions int64
}

// contextKey names one hardware context's program.
type contextKey struct {
	name string
	seed uint64
	ctx  int
}

// traceEntry is one cache slot. trace/err are published by once; done and
// bytes are guarded by the cache mutex so eviction never touches a trace
// still being built.
type traceEntry struct {
	key     contextKey
	records int64 // granule-rounded length the entry is built at
	once    sync.Once
	trace   *smt.ContextTrace
	err     error

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
		items:    make(map[contextKey]*list.Element),
	}
}

// Get returns the trace set for spec with at least perThread records per
// context, building the context traces no earlier lookup left behind.
// Identical concurrent lookups share one build per context.
func (c *TraceCache) Get(spec smt.WorkloadSpec, perThread int64) (*smt.TraceSet, error) {
	records := (max(perThread, 0) + traceGranule - 1) / traceGranule * traceGranule
	traces := make([]*smt.ContextTrace, len(spec.Names))
	for i, name := range spec.Names {
		ct, err := c.contextTrace(contextKey{name: name, seed: spec.Seed, ctx: i}, records)
		if err != nil {
			return nil, err
		}
		traces[i] = ct
	}
	return smt.NewTraceSet(spec, traces)
}

// contextTrace returns key's trace with at least records records.
func (c *TraceCache) contextTrace(key contextKey, records int64) (*smt.ContextTrace, error) {
	c.mu.Lock()
	el, ok := c.items[key]
	if ok && el.Value.(*traceEntry).records >= records {
		c.ll.MoveToFront(el)
		c.reuses++
	} else {
		if ok {
			// Too short: the longer trace takes the slot. Lookups already
			// holding the short one keep replaying it; the cache stops
			// counting it now, whether built or still building.
			c.removeLocked(el.Value.(*traceEntry))
		}
		el = c.ll.PushFront(&traceEntry{key: key, records: records})
		c.items[key] = el
	}
	ent := el.Value.(*traceEntry)
	c.mu.Unlock()

	ent.once.Do(func() {
		ent.trace, ent.err = smt.BuildContextTrace(key.name, key.seed, key.ctx, ent.records)
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
		if !c.holdsLocked(ent) {
			return // superseded while building: never counted, nothing to evict for
		}
		ent.bytes = ent.trace.Bytes()
		c.bytes += ent.bytes
		c.evictLocked(ent)
	})
	return ent.trace, ent.err
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

// holdsLocked reports whether ent is still the entry under its key.
func (c *TraceCache) holdsLocked(ent *traceEntry) bool {
	el, ok := c.items[ent.key]
	return ok && el.Value.(*traceEntry) == ent
}

// removeLocked detaches one entry from the index and byte accounting.
func (c *TraceCache) removeLocked(ent *traceEntry) {
	if c.holdsLocked(ent) {
		c.ll.Remove(c.items[ent.key])
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
