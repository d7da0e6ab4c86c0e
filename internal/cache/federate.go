package cache

import (
	"context"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/rng"
)

// PeerHeader marks cache traffic that already crossed one federation hop.
// A coordinator receiving a request bearing it answers from its local
// tiers only — never re-forwarding to another peer — so lookups are
// single-hop by construction and a misconfigured ring cannot loop.
const PeerHeader = "X-Smtd-Peer"

// PeerStats snapshots the federation tier's counters.
type PeerStats struct {
	Self             string                       `json:"self"`
	Members          []string                     `json:"members"`
	PeerHits         int64                        `json:"peer_hits"`          // local misses served by the key's owner
	PeerMisses       int64                        `json:"peer_misses"`        // owner probes that missed too
	PeerFills        int64                        `json:"peer_fills"`         // fills the owner acknowledged
	PeerFillFailures int64                        `json:"peer_fill_failures"` // forwards that never landed (transport or open breaker)
	PeerFillDropped  int64                        `json:"peer_fill_dropped"`  // fills shed because the forward queue was full
	PeerSkipped      int64                        `json:"peer_breaker_skips"` // probes answered as instant misses by an open breaker
	Breakers         []resilience.BreakerSnapshot `json:"breakers,omitempty"` // per-peer circuit state
}

// FederatedConfig tunes the federation layer. The zero value works:
// defaults below.
type FederatedConfig struct {
	// Client carries probe and fill traffic to peers. Nil gets a
	// dedicated short-timeout client — peer probes sit on the sweep's
	// critical path only long enough to beat a re-simulation.
	Client *http.Client

	// Breakers is the per-peer circuit breaker set. Nil builds a
	// default-config set private to this instance; smtd passes one set
	// shared between the result and snapshot federations, because a
	// host that is down is down for both keyspaces.
	Breakers *resilience.BreakerSet

	// FillQueue bounds the async fill-forwarding queue (defaults to
	// 256). When the forwarder cannot keep up the oldest behavior wins:
	// new fills are shed and counted — the owner just misses later and
	// asks us back.
	FillQueue int

	// FillPolicy is the retry schedule for forwarded fills. Off the
	// caller's path, so a couple of attempts are cheap. Zero value gets
	// 2 attempts with a 100ms base.
	FillPolicy resilience.Policy
}

// Federated shards a logical cache across a set of coordinator peers by
// consistent-hashing keys over the member list: every member agrees which
// node owns each key, owners accumulate the fills, and a local miss is
// resolved with at most one peer probe — to the owner. Layered over a
// node's local store (typically a Tiered memory+disk stack) it makes N
// coordinators serve one logical cache: a sweep computed through any of
// them is a 100% hit resubmitted through any other.
//
// Every member must be configured with the same member list (its own URL
// included) or the rings disagree; the protocol still degrades safely —
// a wrong owner probe is just a miss — but the one-logical-cache property
// only holds when the rings match.
//
// Each peer sits behind a circuit breaker: after a few consecutive
// transport failures the breaker opens and the owner's probes become
// instant local misses instead of client timeouts on every sweep job,
// until a half-open probe after the cooldown finds the peer healthy
// again. Fills forward asynchronously through a bounded queue, so a slow
// or dead owner never stalls the simulation that produced the value.
//
// Consistency needs no protocol: values are deterministic functions of
// their content-addressed keys, so replicas cannot diverge and
// last-write-wins is exact.
type Federated[V any] struct {
	local    Getter[V]
	self     string
	members  []string // sorted, deduped, self included
	ring     []ringPoint
	peers    map[string]*Remote[V]
	breakers *resilience.BreakerSet
	fillPol  resilience.Policy

	fills     chan fillReq[V]
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	peerHits         atomic.Int64
	peerMisses       atomic.Int64
	peerFills        atomic.Int64
	peerFillFailures atomic.Int64
	peerFillDropped  atomic.Int64
	peerSkipped      atomic.Int64
}

// fillReq is one queued forward; a non-nil flush is a barrier sentinel —
// the forwarder closes it when every earlier fill has been attempted.
type fillReq[V any] struct {
	key   string
	v     V
	flush chan struct{}
}

type ringPoint struct {
	hash   uint64
	member string
}

// vnodes is how many ring points each member gets; enough that a few
// members split the key space evenly, cheap enough that ring construction
// and lookup stay trivial.
const vnodes = 64

// NewFederated builds the federation layer over local for this node
// (self) and the full member list. Member URLs are normalized (trailing
// slashes dropped) and deduped; self is added if absent. The instance
// owns a background fill forwarder — Close it when done.
func NewFederated[V any](local Getter[V], self string, members []string, cfg FederatedConfig) *Federated[V] {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Breakers == nil {
		cfg.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{})
	}
	if cfg.FillQueue <= 0 {
		cfg.FillQueue = 256
	}
	if cfg.FillPolicy.MaxAttempts == 0 && cfg.FillPolicy.BaseDelay == 0 {
		cfg.FillPolicy = resilience.Policy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
	}
	self = strings.TrimRight(self, "/")
	seen := map[string]bool{self: true}
	all := []string{self}
	for _, m := range members {
		m = strings.TrimRight(strings.TrimSpace(m), "/")
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		all = append(all, m)
	}
	sort.Strings(all)
	f := &Federated[V]{
		local:    local,
		self:     self,
		members:  all,
		peers:    make(map[string]*Remote[V]),
		breakers: cfg.Breakers,
		fillPol:  cfg.FillPolicy,
		fills:    make(chan fillReq[V], cfg.FillQueue),
		stop:     make(chan struct{}),
	}
	for _, m := range all {
		for i := 0; i < vnodes; i++ {
			f.ring = append(f.ring, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
		if m != self {
			f.peers[m] = NewRemote[V](m, cfg.Client).WithHeader(PeerHeader, "1")
		}
	}
	sort.Slice(f.ring, func(i, j int) bool {
		if f.ring[i].hash != f.ring[j].hash {
			return f.ring[i].hash < f.ring[j].hash
		}
		return f.ring[i].member < f.ring[j].member
	})
	f.wg.Add(1)
	go f.forwardLoop()
	return f
}

// Close stops the fill forwarder; queued fills are abandoned (each costs
// the owner one future re-simulation, nothing else). Safe to call twice.
func (f *Federated[V]) Close() {
	f.closeOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// Owner returns the member that owns key on the ring. Every member with
// the same member list computes the same owner for every key.
func (f *Federated[V]) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= h })
	if i == len(f.ring) {
		i = 0
	}
	return f.ring[i].member
}

// Get serves key from the local tiers, falling back to exactly one peer
// probe — the key's owner — on a local miss. A peer hit is promoted into
// the local tiers so repeats stay local. An open breaker answers the
// probe as an instant miss: a down owner costs nothing but the
// re-simulation its shard would have saved.
func (f *Federated[V]) Get(key string) (V, bool) {
	if v, ok := f.local.Get(key); ok {
		return v, true
	}
	var zero V
	owner := f.Owner(key)
	peer, ok := f.peers[owner]
	if !ok { // we are the owner; nobody else would have it
		return zero, false
	}
	br := f.breakers.Get(owner)
	if !br.Allow() {
		f.peerSkipped.Add(1)
		return zero, false
	}
	v, hit, err := peer.Probe(context.Background(), key)
	if err != nil {
		br.Failure()
		f.peerMisses.Add(1)
		return zero, false
	}
	br.Success()
	if !hit {
		f.peerMisses.Add(1)
		return zero, false
	}
	f.peerHits.Add(1)
	f.local.Put(key, v)
	return v, true
}

// Put writes through the local tiers and queues the fill for async
// forwarding to the key's owner when that is a peer, so the owner
// accumulates its shard of the logical cache whichever coordinator
// computed the result — without the forward's network time ever sitting
// on the caller's (the simulation's) critical path. A full queue sheds
// the fill and counts it.
func (f *Federated[V]) Put(key string, v V) {
	f.local.Put(key, v)
	if _, ok := f.peers[f.Owner(key)]; !ok {
		return
	}
	select {
	case f.fills <- fillReq[V]{key: key, v: v}:
	default:
		f.peerFillDropped.Add(1)
	}
}

// Flush blocks until every fill queued before the call has been
// attempted (not necessarily delivered — a down owner still fails), or
// ctx ends. The sweep path flushes once per finished sweep so a
// resubmission through any member sees the completed shard, and tests
// use it to make async fills observable.
func (f *Federated[V]) Flush(ctx context.Context) error {
	done := make(chan struct{})
	select {
	case f.fills <- fillReq[V]{flush: done}:
	case <-ctx.Done():
		return ctx.Err()
	case <-f.stop:
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-f.stop:
		return nil
	}
}

// forwardLoop drains the fill queue in order; the FIFO discipline is
// what makes Flush's sentinel a barrier.
func (f *Federated[V]) forwardLoop() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stop:
			return
		case fr := <-f.fills:
			if fr.flush != nil {
				close(fr.flush)
				continue
			}
			f.forward(fr.key, fr.v)
		}
	}
}

// forward delivers one fill to the key's owner, riding the fill policy
// for transient failures and reporting the outcome to the owner's
// breaker. Fills are only counted when the owner acknowledged them.
func (f *Federated[V]) forward(key string, v V) {
	owner := f.Owner(key)
	peer, ok := f.peers[owner]
	if !ok {
		return
	}
	br := f.breakers.Get(owner)
	if !br.Allow() {
		f.peerFillFailures.Add(1)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Abandon in-flight forwards on Close so shutdown never waits out a
	// slow peer.
	go func() {
		select {
		case <-f.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	err := f.fillPol.Do(ctx, func(actx context.Context) error {
		return peer.Fill(actx, key, v)
	})
	if err != nil {
		br.Failure()
		f.peerFillFailures.Add(1)
		return
	}
	br.Success()
	f.peerFills.Add(1)
}

// Stats snapshots the federation counters.
func (f *Federated[V]) Stats() PeerStats {
	return PeerStats{
		Self:             f.self,
		Members:          f.members,
		PeerHits:         f.peerHits.Load(),
		PeerMisses:       f.peerMisses.Load(),
		PeerFills:        f.peerFills.Load(),
		PeerFillFailures: f.peerFillFailures.Load(),
		PeerFillDropped:  f.peerFillDropped.Load(),
		PeerSkipped:      f.peerSkipped.Load(),
		Breakers:         f.breakers.Snapshot(),
	}
}

// hash64 is the ring's key and vnode hash: FNV-1a — stable across
// processes and Go versions (unlike maphash), which the ring agreement
// between separately booted coordinators depends on — pushed through the
// splitmix64 finalizer, because raw FNV-1a barely avalanches a change in
// a string's last bytes and sequential keys would otherwise cluster on
// one member's arc.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return rng.Mix(h.Sum64())
}
