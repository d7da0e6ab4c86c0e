package policy

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFetchNamesRoundTrip(t *testing.T) {
	for _, alg := range []FetchAlg{RR, BRCount, MissCount, ICount, IQPosn, ICountBRCount, ICountWeightedMiss} {
		got, err := ParseFetchAlg(alg.String())
		if err != nil || got != alg {
			t.Errorf("round trip %v: got %v, err %v", alg, got, err)
		}
	}
	if _, err := ParseFetchAlg("BOGUS"); err == nil {
		t.Error("expected parse error")
	}
}

func TestIssueNamesRoundTrip(t *testing.T) {
	for _, alg := range []IssueAlg{OldestFirst, OptLast, SpecLast, BranchFirst} {
		got, err := ParseIssueAlg(alg.String())
		if err != nil || got != alg {
			t.Errorf("round trip %v: got %v, err %v", alg, got, err)
		}
	}
	if _, err := ParseIssueAlg("BOGUS"); err == nil {
		t.Error("expected parse error")
	}
}

// Property (registry-wide): every registered fetch policy name round-trips
// through ParseFetchAlg/String, and its selector produces a valid
// permutation of all threads for randomized feedback.
func TestEveryRegisteredFetchPolicy(t *testing.T) {
	names := FetchNames()
	if len(names) < 7 { // 5 paper policies + 2 composites at minimum
		t.Fatalf("registry has %d fetch policies: %v", len(names), names)
	}
	for _, name := range names {
		alg, err := ParseFetchAlg(name)
		if err != nil || alg.String() != name {
			t.Errorf("parse/String round trip broken for %q: %v, %v", name, alg, err)
		}
		sel, ok := LookupFetch(name)
		if !ok || sel.Name() != name {
			t.Fatalf("lookup %q failed or name mismatch", name)
		}
		f := func(base uint8, counts []uint16) bool {
			if len(counts) == 0 {
				return true
			}
			if len(counts) > 8 {
				counts = counts[:8]
			}
			fb := make([]ThreadFeedback, len(counts))
			for i, c := range counts {
				fb[i] = ThreadFeedback{
					ICount: int(c), BrCount: int(c / 2),
					MissCount: int(c % 5), IQPosn: int(c) * 3,
				}
			}
			got := sel.Order(int(base)%len(fb), fb, nil)
			if len(got) != len(fb) {
				return false
			}
			seen := make([]bool, len(fb))
			for _, th := range got {
				if th < 0 || th >= len(fb) || seen[th] {
					return false
				}
				seen[th] = true
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property (registry-wide): every registered issue policy name round-trips,
// and its Less is a strict weak ordering usable by a stable sort — sorting
// random candidate lists always yields a permutation.
func TestEveryRegisteredIssuePolicy(t *testing.T) {
	names := IssueNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d issue policies: %v", len(names), names)
	}
	for _, name := range names {
		alg, err := ParseIssueAlg(name)
		if err != nil || alg.String() != name {
			t.Errorf("parse/String round trip broken for %q: %v, %v", name, alg, err)
		}
		sel, ok := LookupIssue(name)
		if !ok || sel.Name() != name {
			t.Fatalf("lookup %q failed or name mismatch", name)
		}
		f := func(aFlags, bFlags uint8, aAge, bAge uint16) bool {
			a := IssueInfo{Age: int64(aAge), Optimistic: aFlags&1 != 0, Speculative: aFlags&2 != 0, Branch: aFlags&4 != 0}
			b := IssueInfo{Age: int64(bAge), Optimistic: bFlags&1 != 0, Speculative: bFlags&2 != 0, Branch: bFlags&4 != 0}
			if sel.Less(a, a) {
				return false // irreflexive
			}
			return !(sel.Less(a, b) && sel.Less(b, a)) // asymmetric
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s asymmetry: %v", name, err)
		}
	}
}

// Registered partitioners must agree with their own Less — the core's fast
// path and the generic sort path must order identically.
func TestPartitionersConsistentWithLess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range IssueNames() {
		sel, _ := LookupIssue(name)
		part, ok := sel.(IssuePartitioner)
		if !ok {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			a := IssueInfo{Age: int64(rng.Intn(50)), Optimistic: rng.Intn(2) == 0,
				Speculative: rng.Intn(2) == 0, Branch: rng.Intn(2) == 0}
			b := IssueInfo{Age: int64(rng.Intn(50)), Optimistic: rng.Intn(2) == 0,
				Speculative: rng.Intn(2) == 0, Branch: rng.Intn(2) == 0}
			if a.Age == b.Age {
				continue
			}
			want := (part.First(a) && !part.First(b)) ||
				(part.First(a) == part.First(b) && a.Age < b.Age)
			if got := sel.Less(a, b); got != want {
				t.Fatalf("%s: Less(%+v,%+v)=%v, partition implies %v", name, a, b, got, want)
			}
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	if err := RegisterFetch(NewFetchSelector("ICOUNT", nil, false)); err == nil {
		t.Error("duplicate fetch name accepted")
	}
	if err := RegisterIssue(NewIssueSelector("OPT_LAST", func(a, b IssueInfo) bool { return a.Age < b.Age }, false)); err == nil {
		t.Error("duplicate issue name accepted")
	}
	for _, bad := range []string{"", "3POLICY", "HAS SPACE", "BAD*CHAR", string(make([]byte, 80))} {
		if err := RegisterFetch(NewFetchSelector(bad, nil, false)); err == nil {
			t.Errorf("bad name %q accepted", bad)
		}
	}
	if err := RegisterFetch(nil); err == nil {
		t.Error("nil selector accepted")
	}
}

// fetchSel and issueSel resolve a built-in the way core.New does: once, by
// name, against the registry.
func fetchSel(t *testing.T, alg FetchAlg) FetchSelector {
	t.Helper()
	sel, err := alg.Selector()
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func issueSel(t *testing.T, alg IssueAlg) IssueSelector {
	t.Helper()
	sel, err := alg.Selector()
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestRRRotates(t *testing.T) {
	fb := make([]ThreadFeedback, 4)
	out := make([]int, 0, 4)
	got0 := fetchSel(t, RR).Order(0, fb, out)
	if !equal(got0, []int{0, 1, 2, 3}) {
		t.Fatalf("rrBase 0: %v", got0)
	}
	got2 := fetchSel(t, RR).Order(2, fb, make([]int, 0, 4))
	if !equal(got2, []int{2, 3, 0, 1}) {
		t.Fatalf("rrBase 2: %v", got2)
	}
}

func TestICountPrefersEmptiestThread(t *testing.T) {
	fb := []ThreadFeedback{
		{ICount: 20}, {ICount: 3}, {ICount: 11}, {ICount: 3},
	}
	got := fetchSel(t, ICount).Order(0, fb, make([]int, 0, 4))
	// Threads 1 and 3 tie at 3; round-robin from base 0 keeps 1 before 3.
	if !equal(got, []int{1, 3, 2, 0}) {
		t.Fatalf("ICOUNT order = %v", got)
	}
	// With rrBase 3, the tie resolves 3 before 1.
	got = fetchSel(t, ICount).Order(3, fb, make([]int, 0, 4))
	if !equal(got, []int{3, 1, 2, 0}) {
		t.Fatalf("ICOUNT order rrBase=3: %v", got)
	}
}

func TestBRCountAndMissCount(t *testing.T) {
	fb := []ThreadFeedback{
		{BrCount: 5, MissCount: 0},
		{BrCount: 0, MissCount: 7},
		{BrCount: 2, MissCount: 2},
	}
	if got := fetchSel(t, BRCount).Order(0, fb, nil); !equal(got, []int{1, 2, 0}) {
		t.Fatalf("BRCOUNT = %v", got)
	}
	if got := fetchSel(t, MissCount).Order(0, fb, nil); !equal(got, []int{0, 2, 1}) {
		t.Fatalf("MISSCOUNT = %v", got)
	}
}

func TestIQPosnPrefersFarFromHead(t *testing.T) {
	fb := []ThreadFeedback{
		{IQPosn: 0},   // oldest instruction at the very head: worst
		{IQPosn: 900}, // nothing in queue: best
		{IQPosn: 12},
	}
	if got := fetchSel(t, IQPosn).Order(0, fb, nil); !equal(got, []int{1, 2, 0}) {
		t.Fatalf("IQPOSN = %v", got)
	}
}

// The composite ICOUNT+BRCOUNT must order by ICount first and break ICount
// ties by BrCount (then round-robin), unlike plain ICOUNT whose ties are
// round-robin alone.
func TestICountBRCountTieBreak(t *testing.T) {
	fb := []ThreadFeedback{
		{ICount: 3, BrCount: 9},
		{ICount: 3, BrCount: 1},
		{ICount: 1, BrCount: 5},
	}
	if got := fetchSel(t, ICountBRCount).Order(0, fb, nil); !equal(got, []int{2, 1, 0}) {
		t.Fatalf("ICOUNT+BRCOUNT = %v", got)
	}
	// Plain ICOUNT leaves the 0/1 tie in rotation order.
	if got := fetchSel(t, ICount).Order(0, fb, nil); !equal(got, []int{2, 0, 1}) {
		t.Fatalf("ICOUNT = %v", got)
	}
}

func TestICountWeightedMiss(t *testing.T) {
	fb := []ThreadFeedback{
		{ICount: 4, MissCount: 0}, // score 4
		{ICount: 0, MissCount: 3}, // score 6
		{ICount: 1, MissCount: 1}, // score 3
	}
	if got := fetchSel(t, ICountWeightedMiss).Order(0, fb, nil); !equal(got, []int{2, 0, 1}) {
		t.Fatalf("ICOUNT+2MISSCOUNT = %v", got)
	}
}

// Legacy JSON compatibility: pre-registry clients encoded policies as their
// uint8 enum values; both spellings must decode to the same name.
func TestPolicyJSONCompat(t *testing.T) {
	var f FetchAlg
	if err := json.Unmarshal([]byte(`3`), &f); err != nil || f != ICount {
		t.Fatalf("legacy index 3 = %q, err %v", f, err)
	}
	if err := json.Unmarshal([]byte(`"ICOUNT+BRCOUNT"`), &f); err != nil || f != ICountBRCount {
		t.Fatalf("name decode = %q, err %v", f, err)
	}
	if err := json.Unmarshal([]byte(`99`), &f); err == nil {
		t.Fatal("out-of-range legacy index accepted")
	}
	raw, err := json.Marshal(ICount)
	if err != nil || string(raw) != `"ICOUNT"` {
		t.Fatalf("marshal = %s, err %v", raw, err)
	}
	var i IssueAlg
	if err := json.Unmarshal([]byte(`1`), &i); err != nil || i != OptLast {
		t.Fatalf("legacy issue index 1 = %q, err %v", i, err)
	}
}

// The built-in canonical fingerprints are frozen to the historical uint8
// encoding; every cached result key depends on this.
func TestCanonicalFingerprintFrozen(t *testing.T) {
	for i, alg := range []FetchAlg{RR, BRCount, MissCount, ICount, IQPosn} {
		if got, want := alg.CanonicalFingerprint(), string(rune('0'+i)); got != want {
			t.Errorf("fetch %s canonical = %q, want %q", alg, got, want)
		}
	}
	if got := FetchAlg("").CanonicalFingerprint(); got != "0" {
		t.Errorf("zero fetch canonical = %q, want 0", got)
	}
	for i, alg := range []IssueAlg{OldestFirst, OptLast, SpecLast, BranchFirst} {
		if got, want := alg.CanonicalFingerprint(), string(rune('0'+i)); got != want {
			t.Errorf("issue %s canonical = %q, want %q", alg, got, want)
		}
	}
	if got := ICountBRCount.CanonicalFingerprint(); got != `"ICOUNT+BRCOUNT"` {
		t.Errorf("composite canonical = %q", got)
	}
}

func TestFetchOrderSortedProperty(t *testing.T) {
	f := func(counts []uint8, base uint8) bool {
		if len(counts) < 2 {
			return true
		}
		if len(counts) > 8 {
			counts = counts[:8]
		}
		fb := make([]ThreadFeedback, len(counts))
		for i, c := range counts {
			fb[i].ICount = int(c)
		}
		got := fetchSel(t, ICount).Order(int(base)%len(fb), fb, nil)
		return sort.SliceIsSorted(got, func(i, j int) bool {
			return fb[got[i]].ICount < fb[got[j]].ICount
		}) || isStableSorted(got, fb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func isStableSorted(order []int, fb []ThreadFeedback) bool {
	for i := 1; i < len(order); i++ {
		if fb[order[i-1]].ICount > fb[order[i]].ICount {
			return false
		}
	}
	return true
}

func TestIssueLessOldestFirst(t *testing.T) {
	a := IssueInfo{Age: 5}
	b := IssueInfo{Age: 9}
	if !issueSel(t, OldestFirst).Less(a, b) || issueSel(t, OldestFirst).Less(b, a) {
		t.Fatal("OLDEST_FIRST not by age")
	}
}

func TestIssueLessOptLast(t *testing.T) {
	opt := IssueInfo{Age: 1, Optimistic: true}
	reg := IssueInfo{Age: 100}
	if !issueSel(t, OptLast).Less(reg, opt) {
		t.Fatal("OPT_LAST must defer optimistic instructions")
	}
	// Among equals, oldest wins.
	if !issueSel(t, OptLast).Less(IssueInfo{Age: 1, Optimistic: true}, IssueInfo{Age: 2, Optimistic: true}) {
		t.Fatal("OPT_LAST tie-break not oldest-first")
	}
}

func TestIssueLessSpecLast(t *testing.T) {
	spec := IssueInfo{Age: 1, Speculative: true}
	nonspec := IssueInfo{Age: 100}
	if !issueSel(t, SpecLast).Less(nonspec, spec) {
		t.Fatal("SPEC_LAST must defer speculative instructions")
	}
}

func TestIssueLessBranchFirst(t *testing.T) {
	br := IssueInfo{Age: 100, Branch: true}
	alu := IssueInfo{Age: 1}
	if !issueSel(t, BranchFirst).Less(br, alu) {
		t.Fatal("BRANCH_FIRST must promote branches")
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkFetchOrder times one fetch-policy dispatch — the per-cycle cost
// the CI bench smoke step watches for regressions now that selection goes
// through an interface.
func BenchmarkFetchOrder(b *testing.B) {
	sel, _ := LookupFetch(string(ICount))
	fb := make([]ThreadFeedback, 8)
	for i := range fb {
		fb[i] = ThreadFeedback{ICount: (i * 7) % 5, BrCount: i % 3}
	}
	out := make([]int, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = sel.Order(i, fb, out)
	}
}

// BenchmarkIssueLess times one issue-policy comparison through the
// selector interface.
func BenchmarkIssueLess(b *testing.B) {
	sel, _ := LookupIssue(string(SpecLast))
	a := IssueInfo{Age: 4, Speculative: true}
	c := IssueInfo{Age: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sel.Less(a, c) {
			b.Fatal("unexpected order")
		}
	}
}
