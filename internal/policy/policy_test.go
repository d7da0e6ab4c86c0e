package policy

import (
	"encoding/json"
	"math/rand"
	"reflect"
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
// through ParseFetchAlg/String, and its Order produces a valid
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
		if !ok || sel.Name != name {
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
// states at most one of First and Less, and the order it stands for
// (issueLess) is irreflexive and asymmetric — usable by a stable sort.
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
		if !ok || sel.Name != name {
			t.Fatalf("lookup %q failed or name mismatch", name)
		}
		if sel.First != nil && sel.Less != nil {
			t.Errorf("%s states both First and Less", name)
		}
		less := issueLess(sel)
		f := func(aFlags, bFlags uint8, aAge, bAge uint16) bool {
			a := IssueInfo{Age: int64(aAge), Optimistic: aFlags&1 != 0, Speculative: aFlags&2 != 0, Branch: aFlags&4 != 0}
			b := IssueInfo{Age: int64(bAge), Optimistic: bFlags&1 != 0, Speculative: bFlags&2 != 0, Branch: bFlags&4 != 0}
			if less(a, a) {
				return false // irreflexive
			}
			return !(less(a, b) && less(b, a)) // asymmetric
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s asymmetry: %v", name, err)
		}
	}
}

// builtinIssueOrder states each built-in issue policy's order as a plain
// comparison, independently of the First flags builtin.go registers.
var builtinIssueOrder = map[IssueAlg]func(a, b IssueInfo) bool{
	OldestFirst: func(a, b IssueInfo) bool { return a.Age < b.Age },
	OptLast: func(a, b IssueInfo) bool {
		if a.Optimistic != b.Optimistic {
			return b.Optimistic
		}
		return a.Age < b.Age
	},
	SpecLast: func(a, b IssueInfo) bool {
		if a.Speculative != b.Speculative {
			return b.Speculative
		}
		return a.Age < b.Age
	},
	BranchFirst: func(a, b IssueInfo) bool {
		if a.Branch != b.Branch {
			return a.Branch
		}
		return a.Age < b.Age
	},
}

// For every registered issue policy, on random age-sorted candidate lists:
// the reordering the core applies — nothing, the stable partition by
// First, or the stable sort by Less — equals a stable sort by the
// comparison the policy stands for; the built-ins' comparison is the
// independent one above, so a First with its sense inverted fails here.
func TestPartitionersConsistentWithLess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range IssueNames() {
		sel, _ := LookupIssue(name)
		want := builtinIssueOrder[IssueAlg(name)]
		if want == nil {
			want = issueLess(sel)
		}
		for trial := 0; trial < 200; trial++ {
			cands := make([]IssueInfo, 1+rng.Intn(40))
			for i := range cands {
				cands[i] = IssueInfo{Age: int64(2 * i), Optimistic: rng.Intn(2) == 0,
					Speculative: rng.Intn(2) == 0, Branch: rng.Intn(2) == 0}
			}
			sorted := append([]IssueInfo(nil), cands...)
			sort.SliceStable(sorted, func(i, j int) bool { return want(sorted[i], sorted[j]) })
			got := cands
			if sel.First != nil {
				got = nil
				for _, pass := range []bool{true, false} {
					for _, c := range cands {
						if sel.First(c) == pass {
							got = append(got, c)
						}
					}
				}
			} else if sel.Less != nil {
				got = append([]IssueInfo(nil), cands...)
				sort.SliceStable(got, func(i, j int) bool { return sel.Less(got[i], got[j]) })
			}
			if !reflect.DeepEqual(got, sorted) {
				t.Fatalf("%s: reordered %+v, stable sort by its comparison gives %+v", name, got, sorted)
			}
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	byAge := func(a, b IssueInfo) bool { return a.Age < b.Age }
	if err := RegisterFetch(Fetch{Name: "ICOUNT"}); err == nil {
		t.Error("duplicate fetch name accepted")
	}
	if err := RegisterIssue(Issue{Name: "OPT_LAST", Less: byAge}); err == nil {
		t.Error("duplicate issue name accepted")
	}
	for _, bad := range []string{"", "3POLICY", "HAS SPACE", "BAD*CHAR", string(make([]byte, 80))} {
		if err := RegisterFetch(Fetch{Name: bad}); err == nil {
			t.Errorf("bad fetch name %q accepted", bad)
		}
		if err := RegisterIssue(Issue{Name: bad}); err == nil {
			t.Errorf("bad issue name %q accepted", bad)
		}
	}
	both := Issue{Name: "TEST_BOTH_FIRST_AND_LESS", First: func(IssueInfo) bool { return true }, Less: byAge}
	if err := RegisterIssue(both); err == nil {
		t.Error("issue policy stating both First and Less accepted")
	}
	if _, ok := LookupIssue(both.Name); ok {
		t.Error("a refused registration still took its name")
	}
}

// A value obtained from Lookup is a copy: mutating it does not change what
// the name — a content address — resolves to.
func TestLookupReturnsACopy(t *testing.T) {
	fb := []ThreadFeedback{{ICount: 9}, {ICount: 1}, {ICount: 5}}
	f, _ := LookupFetch("ICOUNT")
	f.Less, f.Needs, f.Name = nil, FeedbackNeeds{}, "RR"
	again, _ := LookupFetch("ICOUNT")
	if again.Name != "ICOUNT" || again.Needs != (FeedbackNeeds{ICount: true}) ||
		!equal(again.Order(0, fb, nil), []int{1, 2, 0}) {
		t.Errorf("mutating a looked-up fetch policy changed the registry: %+v", again)
	}
	i, _ := LookupIssue("OPT_LAST")
	i.First, i.Needs = nil, IssueNeeds{}
	if again, _ := LookupIssue("OPT_LAST"); again.First == nil || again.Needs != (IssueNeeds{Optimistic: true}) {
		t.Errorf("mutating a looked-up issue policy changed the registry: %+v", again)
	}
}

// frozenOrders is every built-in fetch policy's Order on orderFeedback at
// rrBase 0, 3 and 6. A name is a content address: an order that moves here
// changes what every cached result under that name means.
var frozenOrders = map[string][3][]int{
	"RR":                {{0, 1, 2, 3, 4, 5, 6, 7}, {3, 4, 5, 6, 7, 0, 1, 2}, {6, 7, 0, 1, 2, 3, 4, 5}},
	"BRCOUNT":           {{2, 4, 1, 5, 7, 0, 6, 3}, {4, 2, 5, 1, 7, 6, 0, 3}, {2, 4, 1, 5, 7, 6, 0, 3}},
	"MISSCOUNT":         {{0, 3, 4, 2, 6, 1, 7, 5}, {3, 4, 0, 6, 2, 7, 1, 5}, {0, 3, 4, 6, 2, 7, 1, 5}},
	"ICOUNT":            {{4, 1, 3, 6, 7, 0, 5, 2}, {4, 3, 1, 6, 7, 5, 0, 2}, {4, 1, 3, 6, 7, 0, 5, 2}},
	"IQPOSN":            {{4, 1, 3, 7, 0, 5, 6, 2}, {4, 1, 3, 7, 5, 0, 6, 2}, {4, 1, 7, 3, 0, 5, 6, 2}},
	"ICOUNT+BRCOUNT":    {{4, 1, 3, 6, 7, 5, 0, 2}, {4, 1, 3, 6, 7, 5, 0, 2}, {4, 1, 3, 6, 7, 5, 0, 2}},
	"ICOUNT+2MISSCOUNT": {{4, 3, 1, 6, 0, 7, 5, 2}, {4, 3, 6, 1, 0, 7, 5, 2}, {4, 3, 6, 1, 0, 7, 5, 2}},
}

var orderFeedback = []ThreadFeedback{
	{ICount: 12, BrCount: 3, MissCount: 0, IQPosn: 4, LowConf: 1},
	{ICount: 5, BrCount: 1, MissCount: 2, IQPosn: 17, LowConf: 0},
	{ICount: 20, BrCount: 0, MissCount: 1, IQPosn: 0, LowConf: 2},
	{ICount: 5, BrCount: 4, MissCount: 0, IQPosn: 9, LowConf: 0},
	{ICount: 0, BrCount: 0, MissCount: 0, IQPosn: 1 << 20, LowConf: 0},
	{ICount: 12, BrCount: 1, MissCount: 3, IQPosn: 4, LowConf: 3},
	{ICount: 7, BrCount: 3, MissCount: 1, IQPosn: 2, LowConf: 1},
	{ICount: 9, BrCount: 2, MissCount: 2, IQPosn: 9, LowConf: 0},
}

// One table over every registered fetch policy: the order it produces on a
// fixed 8-thread feedback vector is frozen, and it reads no feedback field
// outside its declared Needs — the core leaves those unfilled, so a policy
// that under-declares would order on zeros in the machine.
func TestFetchPoliciesFrozenAndWithinNeeds(t *testing.T) {
	perturb := []struct {
		field    string
		declared func(FeedbackNeeds) bool
		set      func(*ThreadFeedback, int)
	}{
		{"ICount", func(n FeedbackNeeds) bool { return n.ICount }, func(f *ThreadFeedback, v int) { f.ICount = v }},
		{"BrCount", func(n FeedbackNeeds) bool { return n.BrCount }, func(f *ThreadFeedback, v int) { f.BrCount = v }},
		{"MissCount", func(n FeedbackNeeds) bool { return n.MissCount }, func(f *ThreadFeedback, v int) { f.MissCount = v }},
		{"IQPosn", func(n FeedbackNeeds) bool { return n.IQPosn }, func(f *ThreadFeedback, v int) { f.IQPosn = v }},
		{"LowConf", func(n FeedbackNeeds) bool { return n.LowConf }, func(f *ThreadFeedback, v int) { f.LowConf = v }},
	}
	for _, name := range FetchNames() {
		sel, _ := LookupFetch(name)
		want, frozen := frozenOrders[name]
		for k, rrBase := range []int{0, 3, 6} {
			got := sel.Order(rrBase, orderFeedback, nil)
			if frozen && !equal(got, want[k]) {
				t.Errorf("%s rrBase %d: order %v, frozen %v", name, rrBase, got, want[k])
			}
			for _, p := range perturb {
				if p.declared(sel.Needs) {
					continue
				}
				fb := append([]ThreadFeedback(nil), orderFeedback...)
				for i := range fb {
					p.set(&fb[i], (i*5+3)%8)
				}
				if after := sel.Order(rrBase, fb, nil); !equal(after, got) {
					t.Errorf("%s rrBase %d: order moved %v -> %v with undeclared field %s", name, rrBase, got, after, p.field)
				}
			}
		}
	}
	for name := range frozenOrders {
		if _, ok := LookupFetch(name); !ok {
			t.Errorf("frozen order for %q, which is not registered", name)
		}
	}
	for _, alg := range []FetchAlg{RR, BRCount, MissCount, ICount, IQPosn, ICountBRCount, ICountWeightedMiss} {
		if _, ok := frozenOrders[string(alg)]; !ok {
			t.Errorf("built-in %s has no frozen order", alg)
		}
	}
}

// fetchSel resolves a built-in the way core.New does: once, by name,
// against the registry.
func fetchSel(t *testing.T, alg FetchAlg) *Fetch {
	t.Helper()
	sel, err := alg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return &sel
}

// issueLess is the comparison an issue policy stands for, whichever way it
// states it: First-accepted before First-rejected and oldest-first within,
// Less itself, or pure age order.
func issueLess(p Issue) func(a, b IssueInfo) bool {
	switch {
	case p.First != nil:
		return func(a, b IssueInfo) bool {
			if fa, fb := p.First(a), p.First(b); fa != fb {
				return fa
			}
			return a.Age < b.Age
		}
	case p.Less != nil:
		return p.Less
	}
	return func(a, b IssueInfo) bool { return a.Age < b.Age }
}

// issueSel resolves a built-in issue policy to the comparison it stands for.
func issueSel(t *testing.T, alg IssueAlg) func(a, b IssueInfo) bool {
	t.Helper()
	sel, err := alg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return issueLess(sel)
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
	if !issueSel(t, OldestFirst)(a, b) || issueSel(t, OldestFirst)(b, a) {
		t.Fatal("OLDEST_FIRST not by age")
	}
}

func TestIssueLessOptLast(t *testing.T) {
	opt := IssueInfo{Age: 1, Optimistic: true}
	reg := IssueInfo{Age: 100}
	if !issueSel(t, OptLast)(reg, opt) {
		t.Fatal("OPT_LAST must defer optimistic instructions")
	}
	// Among equals, oldest wins.
	if !issueSel(t, OptLast)(IssueInfo{Age: 1, Optimistic: true}, IssueInfo{Age: 2, Optimistic: true}) {
		t.Fatal("OPT_LAST tie-break not oldest-first")
	}
}

func TestIssueLessSpecLast(t *testing.T) {
	spec := IssueInfo{Age: 1, Speculative: true}
	nonspec := IssueInfo{Age: 100}
	if !issueSel(t, SpecLast)(nonspec, spec) {
		t.Fatal("SPEC_LAST must defer speculative instructions")
	}
}

func TestIssueLessBranchFirst(t *testing.T) {
	br := IssueInfo{Age: 100, Branch: true}
	alu := IssueInfo{Age: 1}
	if !issueSel(t, BranchFirst)(br, alu) {
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
// of ordering eight contexts through the policy's Less field.
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

// BenchmarkIssueFirst times one issue-policy flag test through the
// policy's First field.
func BenchmarkIssueFirst(b *testing.B) {
	sel, _ := LookupIssue(string(SpecLast))
	a := IssueInfo{Age: 4, Speculative: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sel.First(a) {
			b.Fatal("unexpected order")
		}
	}
}
