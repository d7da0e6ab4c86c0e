package snapshot

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/smt"
)

func TestKeyShape(t *testing.T) {
	key := Key("fp123", 3, 7, 30000)
	want := fmt.Sprintf("snap:v%d:fp123:r3:s7:w30000", smt.SnapshotVersion)
	if key != want {
		t.Fatalf("Key = %q, want %q", key, want)
	}
	if !strings.HasPrefix(key, KeyPrefix) {
		t.Fatalf("Key %q does not carry the routing prefix %q", key, KeyPrefix)
	}
	// The measure budget must never appear in the key: excluding it is
	// what lets every measure-budget variant of a sweep share checkpoints.
	if strings.Contains(key, "m") {
		t.Fatalf("Key %q appears to encode a measure budget", key)
	}
}

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

// granuleBytes is what one context trace of one granule costs.
const granuleBytes = traceGranule * 12

// Concurrent identical lookups share one build per context.
func TestTraceCacheSharesBuilds(t *testing.T) {
	c := NewTraceCache(0)
	spec := smt.WorkloadMix(2, 0, 1)
	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts, err := c.Get(spec, 2000)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			if ts.Records() != traceGranule || ts.Bytes() != 2*granuleBytes {
				t.Errorf("set has %d records in %d bytes, want one granule per context", ts.Records(), ts.Bytes())
			}
		}()
	}
	wg.Wait()
	want := TraceStats{Builds: 2, Reuses: 2 * (goroutines - 1), Entries: 2, Bytes: 2 * granuleBytes}
	if st := c.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v: one build per context shared by every lookup", st, want)
	}
}

// A context's program is the same at every machine width, so the widths of
// one rotation and seed cost one trace per context, not one per job shape.
func TestTraceCacheSharesContextsAcrossWidths(t *testing.T) {
	c := NewTraceCache(0)
	lookups := 0
	for _, threads := range []int{1, 2, 4, 6, 8} {
		if _, err := c.Get(smt.WorkloadMix(threads, 0, 1), 2000); err != nil {
			t.Fatal(err)
		}
		lookups += threads
	}
	want := TraceStats{Builds: 8, Reuses: int64(lookups - 8), Entries: 8, Bytes: 8 * granuleBytes}
	if st := c.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	// Another seed or rotation is another program in every context.
	if _, err := c.Get(smt.WorkloadMix(2, 0, 2), 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(smt.WorkloadMix(2, 1, 1), 2000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 12 {
		t.Fatalf("Builds = %d after a new seed and a new rotation of 2 contexts each, want 12", st.Builds)
	}
}

// Lengths round up to the granule: a request inside the cached length is a
// reuse, a longer one supersedes the entry without leaking its bytes, and
// the longer trace then serves the shorter requests too.
func TestTraceCacheLengthRule(t *testing.T) {
	c := NewTraceCache(0)
	spec := smt.WorkloadMix(2, 0, 1)
	get := func(n int64) *smt.TraceSet {
		t.Helper()
		ts, err := c.Get(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Records() < n {
			t.Fatalf("Get(%d) returned %d records", n, ts.Records())
		}
		return ts
	}
	for _, n := range []int64{2000, 1999, 2001, 1, traceGranule} {
		get(n)
	}
	want := TraceStats{Builds: 2, Reuses: 8, Entries: 2, Bytes: 2 * granuleBytes}
	if st := c.Stats(); st != want {
		t.Fatalf("inside one granule: Stats = %+v, want %+v", st, want)
	}

	if ts := get(traceGranule + 1); ts.Records() != 2*traceGranule {
		t.Fatalf("superseding set has %d records, want two granules", ts.Records())
	}
	want = TraceStats{Builds: 4, Reuses: 8, Entries: 2, Bytes: 4 * granuleBytes}
	if st := c.Stats(); st != want {
		t.Fatalf("after a longer request: Stats = %+v, want %+v (the short entries replaced, their bytes released)", st, want)
	}

	get(2000)
	want.Reuses += 2
	if st := c.Stats(); st != want {
		t.Fatalf("short request after the long one: Stats = %+v, want %+v", st, want)
	}
}

func TestTraceCacheEvictsToBudget(t *testing.T) {
	// Room for one 2-context rotation and a half, so each new rotation
	// evicts the one before it.
	const budget = 3 * granuleBytes
	c := NewTraceCache(budget)
	for rot := 0; rot < 3; rot++ {
		if _, err := c.Get(smt.WorkloadMix(2, rot, 1), 1000); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("rotation %d: Stats.Bytes = %d exceeds the %d budget", rot, st.Bytes, budget)
		}
	}
	st := c.Stats()
	if st.Evictions != 3 || st.Entries != 3 || st.Bytes != budget {
		t.Fatalf("Stats = %+v, want 3 of 6 context traces evicted and the budget full", st)
	}
	// The survivors must be the most recently used: all of the last
	// rotation.
	if _, err := c.Get(smt.WorkloadMix(2, 2, 1), 1000); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Builds != 6 {
		t.Fatalf("Builds = %d after re-fetching the last rotation, want 6 (no rebuild)", got.Builds)
	}
}

// Short and long lookups racing on the same contexts may supersede an entry
// that is still building; whatever the interleaving, the cache ends up
// holding — and counting — exactly the long traces.
func TestTraceCacheSupersedeWhileBuilding(t *testing.T) {
	c := NewTraceCache(0)
	spec := smt.WorkloadMix(2, 0, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		n := int64(2000)
		if i%2 == 1 {
			n = traceGranule + 1
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ts, err := c.Get(spec, n); err != nil {
				t.Errorf("Get(%d): %v", n, err)
			} else if ts.Records() < n {
				t.Errorf("Get(%d) returned %d records", n, ts.Records())
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 4*granuleBytes || st.Evictions != 0 {
		t.Fatalf("Stats = %+v, want the two long traces and nothing else counted", st)
	}
	if st.Builds < 2 || st.Builds > 4 || st.Builds+st.Reuses != 16 {
		t.Fatalf("Stats = %+v, want 2..4 builds and every lookup a build or a reuse", st)
	}
}
