// Package snapshot holds Store, an exp.SnapshotStore that counts
// warmup-checkpoint traffic over a tier stack from internal/cache, for
// embedders that want one. The checkpoint key format (exp.SnapshotKey)
// and the restore-or-warm logic live in exp; the trace cache an
// exp.WarmEnv replays from is smt.TraceCache.
//
// smtd and bench build a Store; nothing in the kernel imports this
// package. It stays here while bench builds it (ROADMAP item 3): then
// Store can move to cmd/smtd. A restored run commits exactly the cycles a
// cold run would.
package snapshot

import (
	"sync/atomic"

	"repro/internal/cache"
	"repro/smt"
)

// Backing is the tier stack a Store counts on top of; every internal/cache
// store at []byte satisfies it.
type Backing = cache.Getter[[]byte]

// Stats snapshots a Store's effectiveness counters.
type Stats struct {
	Hits        int64
	Misses      int64
	Puts        int64
	BytesLoaded int64 // snapshot bytes served by Get hits
	BytesStored int64 // snapshot bytes written by Put
}

// Store counts snapshot traffic over a backing tier stack. It satisfies
// exp.SnapshotStore, so a WarmEnv checkpoints through it. Corrupt or
// truncated entries are the tiers' concern (cache.Disk verifies checksums
// and serves bad files as misses), so everything reaching Get's hit path
// is intact bytes.
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

// TraceCache and NewTraceCache forward to smt, where the trace cache
// lives. They stay only while bench/ names them (ROADMAP item 3).
type TraceCache = smt.TraceCache

// NewTraceCache is smt.NewTraceCache.
func NewTraceCache(maxBytes int64) *TraceCache { return smt.NewTraceCache(maxBytes) }
