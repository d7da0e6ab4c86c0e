package cache

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fedNode is one in-process federation member: a local store behind the
// same peer-aware /v1/cache surface cmd/smtd exposes, plus the Federated
// view other members reach it through.
type fedNode struct {
	local *Store[result]
	fed   *Federated[result]
	url   string

	peerReqs atomic.Int64 // requests that arrived peer-marked
}

// newFedCluster builds n members whose rings all agree: every node knows
// the full URL list including itself.
func newFedCluster(t *testing.T, n int) []*fedNode {
	t.Helper()
	nodes := make([]*fedNode, n)
	urls := make([]string, n)
	for i := range nodes {
		node := &fedNode{local: New[result](0)}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
			var v result
			var ok bool
			if r.Header.Get(PeerHeader) != "" {
				// Loop protection: peer-marked lookups stay local.
				node.peerReqs.Add(1)
				v, ok = node.local.Get(r.PathValue("key"))
			} else {
				v, ok = node.fed.Get(r.PathValue("key"))
			}
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(v)
		})
		mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
			var v result
			if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			if r.Header.Get(PeerHeader) != "" {
				node.peerReqs.Add(1)
				node.local.Put(r.PathValue("key"), v)
			} else {
				node.fed.Put(r.PathValue("key"), v)
			}
			w.WriteHeader(http.StatusNoContent)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		node.url = srv.URL
		nodes[i] = node
		urls[i] = srv.URL
	}
	for _, node := range nodes {
		node.fed = NewFederated[result](node.local, node.url, urls, FederatedConfig{})
		t.Cleanup(node.fed.Close)
	}
	return nodes
}

// flushFills drains every node's async fill queue so cross-member state
// is observable — the same barrier the sweep path runs at completion.
func flushFills(t *testing.T, nodes []*fedNode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, n := range nodes {
		if err := n.fed.Flush(ctx); err != nil {
			t.Fatalf("flush node %d: %v", i, err)
		}
	}
}

// TestFederatedSharedLogicalCache: a fill through any member is a hit
// through every member, and ownership agrees across rings.
func TestFederatedSharedLogicalCache(t *testing.T) {
	nodes := newFedCluster(t, 3)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("fedkey%02d", i)
		nodes[i%3].fed.Put(keys[i], result{Cycles: int64(i)})
	}
	// Fills forward asynchronously; barrier before asserting cross-member
	// visibility, as the sweep path does at completion.
	flushFills(t, nodes)
	// Rings agree on every key's owner.
	for _, k := range keys {
		owner := nodes[0].fed.Owner(k)
		for _, n := range nodes[1:] {
			if got := n.fed.Owner(k); got != owner {
				t.Fatalf("rings disagree on %s: %s vs %s", k, got, owner)
			}
		}
	}
	// Every key resolves through every member — local, owner-forwarded,
	// or one peer probe away.
	for i, k := range keys {
		for j, n := range nodes {
			if v, ok := n.fed.Get(k); !ok || v.Cycles != int64(i) {
				t.Fatalf("node %d missed %s: %+v ok=%v", j, k, v, ok)
			}
		}
	}
	// The key space actually spreads: with 40 keys and 64 vnodes each,
	// every member should own something.
	owned := map[string]int{}
	for _, k := range keys {
		owned[nodes[0].fed.Owner(k)]++
	}
	if len(owned) != 3 {
		t.Fatalf("ownership collapsed onto %d of 3 members: %v", len(owned), owned)
	}
}

// TestFederatedSingleHop: a miss everywhere costs at most one peer probe,
// and a peer-marked request is never re-forwarded (the probe that reaches
// the owner answers from its local store even though the owner's
// federated view also exists).
func TestFederatedSingleHop(t *testing.T) {
	nodes := newFedCluster(t, 3)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("absent%02d", i)
		for _, n := range nodes {
			if _, ok := n.fed.Get(k); ok {
				t.Fatalf("empty cluster hit on %s", k)
			}
		}
	}
	var peerReqs int64
	for _, n := range nodes {
		peerReqs += n.peerReqs.Load()
	}
	// 3 nodes x 20 keys: each Get issues at most one probe (zero when the
	// prober owns the key). More than 60 would mean probes are fanning out
	// or recursing.
	if peerReqs > 60 {
		t.Fatalf("%d peer requests for 60 misses; lookups are not single-hop", peerReqs)
	}
	if peerReqs == 0 {
		t.Fatal("no probe ever left a node; federation is inert")
	}
}

// TestFederatedPromotion: a peer hit lands in the prober's local store so
// repeats stay local.
func TestFederatedPromotion(t *testing.T) {
	nodes := newFedCluster(t, 2)
	// Find a key owned by node 0, fill it there, probe from node 1.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("promo%02d", i)
		if nodes[0].fed.Owner(k) == nodes[0].url {
			key = k
			break
		}
	}
	nodes[0].fed.Put(key, result{IPC: 7})
	flushFills(t, nodes[:1])
	if v, ok := nodes[1].fed.Get(key); !ok || v.IPC != 7 {
		t.Fatalf("cross-peer get: %+v ok=%v", v, ok)
	}
	if v, ok := nodes[1].local.Get(key); !ok || v.IPC != 7 {
		t.Fatalf("peer hit not promoted locally: %+v ok=%v", v, ok)
	}
	st := nodes[1].fed.Stats()
	if st.PeerHits != 1 {
		t.Fatalf("peer hit counter = %d, want 1", st.PeerHits)
	}
}

// TestFederatedDegradesWhenPeerDown: an unreachable owner is a miss, not
// an error — the prober re-simulates, nothing breaks.
func TestFederatedDegradesWhenPeerDown(t *testing.T) {
	local := New[result](0)
	f := NewFederated[result](local, "http://127.0.0.1:9", []string{"http://127.0.0.1:9", "http://127.0.0.1:1"}, FederatedConfig{})
	defer f.Close()
	// Some key owned by the dead peer.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("dead%02d", i)
		if f.Owner(k) == "http://127.0.0.1:1" {
			key = k
			break
		}
	}
	if _, ok := f.Get(key); ok {
		t.Fatal("dead peer served a hit")
	}
	f.Put(key, result{IPC: 1}) // forward drops silently
	if v, ok := f.Get(key); !ok || v.IPC != 1 {
		t.Fatalf("local tier lost the value behind a dead peer: %+v ok=%v", v, ok)
	}
}
