package smt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// pinned is what spec's context traces at records records each pin: what
// a cache holding exactly them counts.
func pinned(t *testing.T, spec WorkloadSpec, records int64) int64 {
	t.Helper()
	var n int64
	for i, name := range spec.Names {
		tr, err := BuildTrace(name, spec.Seed, i, records)
		if err != nil {
			t.Fatal(err)
		}
		n += tr.Bytes()
	}
	return n
}

// Concurrent identical lookups share one build per context.
func TestTraceCacheSharesBuilds(t *testing.T) {
	c := NewTraceCache(0)
	spec := WorkloadMix(2, 0, 1)
	granuleBytes := pinned(t, spec, traceGranule)
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
			if ts.Records() != traceGranule || ts.Bytes() != granuleBytes {
				t.Errorf("set has %d records in %d bytes, want one granule per context in %d", ts.Records(), ts.Bytes(), granuleBytes)
			}
		}()
	}
	wg.Wait()
	want := TraceStats{Builds: 2, Reuses: 2 * (goroutines - 1), Entries: 2, Bytes: granuleBytes}
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
		if _, err := c.Get(WorkloadMix(threads, 0, 1), 2000); err != nil {
			t.Fatal(err)
		}
		lookups += threads
	}
	want := TraceStats{Builds: 8, Reuses: int64(lookups - 8), Entries: 8, Bytes: pinned(t, WorkloadMix(8, 0, 1), traceGranule)}
	if st := c.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	// Another seed or rotation is another program in every context.
	if _, err := c.Get(WorkloadMix(2, 0, 2), 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(WorkloadMix(2, 1, 1), 2000); err != nil {
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
	spec := WorkloadMix(2, 0, 1)
	get := func(n int64) *TraceSet {
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
	want := TraceStats{Builds: 2, Reuses: 8, Entries: 2, Bytes: pinned(t, spec, traceGranule)}
	if st := c.Stats(); st != want {
		t.Fatalf("inside one granule: Stats = %+v, want %+v", st, want)
	}

	if ts := get(traceGranule + 1); ts.Records() != 2*traceGranule {
		t.Fatalf("superseding set has %d records, want two granules", ts.Records())
	}
	want = TraceStats{Builds: 4, Reuses: 8, Entries: 2, Bytes: pinned(t, spec, 2*traceGranule)}
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
	// Room for the largest 2-context rotation and a half, so each new
	// rotation evicts some of the ones before it. An entry counts the
	// program it pins, so the rotations differ in size.
	var budget, total int64
	for rot := 0; rot < 3; rot++ {
		b := pinned(t, WorkloadMix(2, rot, 1), traceGranule)
		budget, total = max(budget, b*3/2), total+b
	}
	if total <= budget {
		t.Fatalf("three rotations pin %d bytes, within the %d budget: nothing to evict", total, budget)
	}
	c := NewTraceCache(budget)
	for rot := 0; rot < 3; rot++ {
		if _, err := c.Get(WorkloadMix(2, rot, 1), 1000); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("rotation %d: Stats.Bytes = %d exceeds the %d budget", rot, st.Bytes, budget)
		}
	}
	st := c.Stats()
	held := int64(0)
	for _, el := range c.items {
		held += el.Value.(*traceEntry).trace.Bytes()
	}
	if st.Evictions == 0 || st.Entries+int(st.Evictions) != 6 || st.Bytes != held {
		t.Fatalf("Stats = %+v, want evictions, every context trace held or evicted, and the %d bytes held counted", st, held)
	}
	// The survivors must be the most recently used: all of the last
	// rotation.
	if _, err := c.Get(WorkloadMix(2, 2, 1), 1000); err != nil {
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
	spec := WorkloadMix(2, 0, 1)
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
	if st.Entries != 2 || st.Bytes != pinned(t, spec, 2*traceGranule) || st.Evictions != 0 {
		t.Fatalf("Stats = %+v, want the two long traces and nothing else counted", st)
	}
	if st.Builds < 2 || st.Builds > 4 || st.Builds+st.Reuses != 16 {
		t.Fatalf("Stats = %+v, want 2..4 builds and every lookup a build or a reuse", st)
	}
}

// A lookup far past the cap builds maxTraceRecords per context: one job
// pins no more than the cache may hold, a replay that runs past the capped
// trace spills onto the live walker and commits exactly what a live run
// does, and a full eight-context set at the cap fits the default budget
// without evicting itself.
func TestTraceCacheCapsRecords(t *testing.T) {
	c := NewTraceCache(0)
	spec := WorkloadMix(1, 0, 1)
	ts, err := c.Get(spec, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); ts.Records() != maxTraceRecords || st.Bytes > defaultTraceBytes {
		t.Fatalf("oversized Get: %d records, Stats = %+v; want %d records within %d bytes", ts.Records(), st, maxTraceRecords, defaultTraceBytes)
	}
	if testing.Short() {
		t.Skip("runs past the cap")
	}
	cfg := DefaultConfig(1)
	replay, err := NewReplay(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	const n = maxTraceRecords + 100_000
	if got, want := replay.Run(n), MustNew(cfg, spec).Run(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay past the cap diverged from the live run:\n got %+v\nwant %+v", got, want)
	}
	if _, err := c.Get(WorkloadMix(8, 0, 1), 1<<40); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 8 || st.Evictions != 0 || st.Bytes > defaultTraceBytes {
		t.Fatalf("full set at the cap: Stats = %+v, want 8 entries within %d bytes and no evictions", st, defaultTraceBytes)
	}
	t.Logf("eight contexts at the cap pin %d bytes", c.Stats().Bytes)
}

// New takes each context's program from the process-wide cache: it looks
// up every context there, and a second New of the same spec builds
// nothing. A machine on shared programs — built after another machine ran
// on them, or while seven others are built at once — gives exactly the
// results of one built from fresh programs.
func TestNewSharesPrograms(t *testing.T) {
	const perThread = 20_000
	for _, threads := range []int{1, 8} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			cfg, spec := DefaultConfig(threads), WorkloadMix(threads, 0, 1)
			n := perThread * int64(threads)
			ts, err := BuildTraceSet(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewReplay(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh.Run(n)

			before := shared.Stats()
			first := MustNew(cfg, spec)
			mid := shared.Stats()
			if got := mid.Builds + mid.Reuses - before.Builds - before.Reuses; got != int64(threads) {
				t.Fatalf("New made %d lookups in the shared cache, want one a context (%d)", got, threads)
			}
			if got := first.Run(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("first machine on shared programs:\n got %+v\nwant %+v", got, want)
			}
			second := MustNew(cfg, spec)
			if after := shared.Stats(); after.Builds != mid.Builds || after.Reuses-mid.Reuses != int64(threads) {
				t.Fatalf("second New: shared Stats %+v after %+v, want no builds and %d reuses", after, mid, threads)
			}
			if got := second.Run(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("machine built after another ran:\n got %+v\nwant %+v", got, want)
			}

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sim, err := New(cfg, spec)
					if err != nil {
						t.Error(err)
						return
					}
					if got := sim.Run(n); !reflect.DeepEqual(got, want) {
						t.Errorf("machine built concurrently:\n got %+v\nwant %+v", got, want)
					}
				}()
			}
			wg.Wait()
		})
	}
}
