package cache

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/smt"
)

// countingPeer is a federation member reduced to what the stack test
// observes: it acknowledges every fill, misses every probe, and counts
// the requests that reach it.
func countingPeer(t *testing.T) (url string, reqs *atomic.Int64) {
	t.Helper()
	reqs = new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, reqs
}

// TestStack drives every stack shape smtd can configure, at both value
// types it stores, through the behaviours the service leans on.
func TestStack(t *testing.T) {
	t.Run("results", func(t *testing.T) {
		testStackShapes(t, func(i int) smt.Results { return smt.Results{Cycles: int64(i), IPC: float64(i) / 4} })
	})
	t.Run("bytes", func(t *testing.T) {
		testStackShapes(t, func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) })
	})
}

func testStackShapes[V any](t *testing.T, val func(i int) V) {
	for _, shape := range []struct {
		name        string
		disk, peers bool
	}{
		{"mem", false, false},
		{"mem+disk", true, false},
		{"mem+disk+peers", true, true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			const self = "http://127.0.0.1:9"
			dir := ""
			if shape.disk {
				dir = t.TempDir()
			}
			var peerURL string
			var peerReqs *atomic.Int64
			var peers []string
			if shape.peers {
				peerURL, peerReqs = countingPeer(t)
				peers = []string{self, peerURL}
			}
			// Two memory slots, so the third write evicts the first.
			s, err := NewStack[V](2, dir, self, peers, FederatedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			// Keys this node owns, so the peer sees none of this traffic.
			own := func(prefix string, n int) []string {
				var ks []string
				for i := 0; len(ks) < n; i++ {
					if k := fmt.Sprintf("%s%03d", prefix, i); s.fed == nil || s.fed.Owner(k) == self {
						ks = append(ks, k)
					}
				}
				return ks
			}

			// Write-through: a Put at the top is visible in this node's own
			// tiers, and — with a disk — survives memory eviction.
			keys := own("k", 3)
			for i, k := range keys {
				s.Top().Put(k, val(i))
			}
			st := s.Stats()
			if st.Memory.Len != 2 || st.Memory.Evictions != 1 {
				t.Fatalf("memory tier after 3 puts into 2 slots: %+v", st.Memory)
			}
			if (st.Disk != nil) != shape.disk || (st.Peers != nil) != shape.peers {
				t.Fatalf("stats report tiers %+v for shape %s", st, shape.name)
			}
			if shape.disk && st.Disk.Entries != 3 {
				t.Fatalf("disk tier holds %d entries, want 3", st.Disk.Entries)
			}
			got, ok := s.Local().Get(keys[0]) // evicted from memory
			if ok != shape.disk {
				t.Fatalf("evicted key: hit=%v on shape %s", ok, shape.name)
			}
			if shape.disk {
				// Disk → memory promotion: the read above came from disk and
				// a repeat is served by memory.
				if !reflect.DeepEqual(got, val(0)) {
					t.Fatalf("disk round trip changed the value: %+v", got)
				}
				before := s.Stats()
				if _, ok := s.Local().Get(keys[0]); !ok {
					t.Fatal("promoted key missed")
				}
				after := s.Stats()
				if after.Disk.Hits != before.Disk.Hits || after.Memory.Hits != before.Memory.Hits+1 {
					t.Fatalf("repeat read was not a memory hit: %+v -> %+v", before, after)
				}
			}

			if shape.peers {
				if n := peerReqs.Load(); n != 0 {
					t.Fatalf("self-owned keys caused %d peer requests", n)
				}
				// Local() never reaches a peer, on a miss or on a fill.
				var theirs string
				for i := 0; theirs == ""; i++ {
					if k := fmt.Sprintf("p%03d", i); s.fed.Owner(k) == peerURL {
						theirs = k
					}
				}
				if _, ok := s.Local().Get(theirs); ok {
					t.Fatal("hit on a key nobody stored")
				}
				s.Local().Put(theirs, val(7))
				if err := s.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if n := peerReqs.Load(); n != 0 {
					t.Fatalf("Local() traffic caused %d peer requests", n)
				}
				// Top() does: the same fill is forwarded to the owner.
				s.Top().Put(theirs, val(8))
				if err := s.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				if n := peerReqs.Load(); n != 1 {
					t.Fatalf("forwarded fill made %d peer requests, want 1", n)
				}
				if st := s.Stats(); st.Peers.PeerFills != 1 {
					t.Fatalf("peer stats after one acked fill: %+v", st.Peers)
				}
			} else if s.Top() != s.Local() {
				t.Fatal("without peers Top must be Local")
			}

			// Flush and Close are safe on every shape, and Close twice.
			if err := s.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s.Close()
		})
	}
}

// TestStackDiskError: the one construction failure is an unusable
// directory, reported before anything with a lifetime is started.
func TestStackDiskError(t *testing.T) {
	file := t.TempDir() + "/not-a-dir"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStack[[]byte](1, file, "", nil, FederatedConfig{}); err == nil {
		t.Fatal("a regular file was accepted as the cache directory")
	}
}
