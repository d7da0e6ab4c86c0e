package cache

import "context"

// StackStats snapshots every tier of a Stack; absent tiers are nil. The
// JSON shape is what smtd's /v1/cache reports per stack.
type StackStats struct {
	Memory Stats      `json:"memory"`
	Disk   *DiskStats `json:"disk,omitempty"`
	Peers  *PeerStats `json:"peers,omitempty"`
}

// Stack is the one place that decides which cache tiers exist, in what
// order, and what they report: a bounded memory LRU (always), a durable
// disk tier under it (when a directory is given), and a federation layer
// over both (when peers are given). smtd builds it twice — simulation
// results and warmup checkpoints — and everything above (singleflight,
// the snapshot counting store, the HTTP handlers, /metrics) sees only the
// Local and Top getters and one StackStats.
type Stack[V any] struct {
	mem   *Store[V]
	disk  *Disk[V]      // nil without a directory
	fed   *Federated[V] // nil without peers
	local Getter[V]
}

// NewStack builds memory → disk → federation. entries bounds the memory
// LRU (0 = unbounded); dir, when non-empty, adds the disk tier rooted
// there (the only source of an error); peers, when non-empty, is the full
// federation member list with self this node's own URL, tuned by fed.
// A stack with peers owns a background fill forwarder — Close it.
func NewStack[V any](entries int, dir, self string, peers []string, fed FederatedConfig) (*Stack[V], error) {
	s := &Stack[V]{mem: New[V](entries)}
	s.local = s.mem
	if dir != "" {
		disk, err := NewDisk[V](dir)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.local = NewTiered(s.mem, disk)
	}
	if len(peers) > 0 {
		s.fed = NewFederated(s.local, self, peers, fed)
	}
	return s, nil
}

// Local returns this node's own tiers (memory, or memory over disk). It
// never reaches a peer: requests that already crossed one federation hop
// are answered from here, which is what keeps lookups single-hop.
func (s *Stack[V]) Local() Getter[V] { return s.local }

// Top returns the whole stack: Local, behind the federation layer when
// there is one.
func (s *Stack[V]) Top() Getter[V] {
	if s.fed != nil {
		return s.fed
	}
	return s.local
}

// Stats snapshots every configured tier.
func (s *Stack[V]) Stats() StackStats {
	st := StackStats{Memory: s.mem.Stats()}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Disk = &ds
	}
	if s.fed != nil {
		ps := s.fed.Stats()
		st.Peers = &ps
	}
	return st
}

// Flush barriers the federation's async fill queue (see Federated.Flush);
// without peers there is nothing queued and it returns at once.
func (s *Stack[V]) Flush(ctx context.Context) error {
	if s.fed == nil {
		return nil
	}
	return s.fed.Flush(ctx)
}

// Close stops the federation's fill forwarder, if any. Safe to call twice.
func (s *Stack[V]) Close() {
	if s.fed != nil {
		s.fed.Close()
	}
}

// SetWriteTransform installs Disk.SetWriteTransform's corrupt-write hook
// on the disk tier (a no-op without one). Production code never calls it.
func (s *Stack[V]) SetWriteTransform(f func(key string, body []byte) []byte) {
	if s.disk != nil {
		s.disk.SetWriteTransform(f)
	}
}
