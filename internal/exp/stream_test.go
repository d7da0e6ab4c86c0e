package exp

import (
	"context"
	"reflect"
	"testing"

	"repro/smt"
)

// A custom fetch policy registered through the public smt API must sweep
// through the engine like a built-in, with its jobs content-addressed by
// policy name (distinct from every built-in's cache key).
func TestCustomPolicySweepsAndCaches(t *testing.T) {
	// Registration is global and permanent; the name is unique to this test.
	err := smt.RegisterFetchPolicy(smt.FetchPolicy{Name: "TEST_EXPSWEEP_HYBRID",
		Less: func(a, b smt.ThreadFeedback) bool {
			sa, sb := a.ICount+a.BrCount, b.ICount+b.BrCount
			return sa < sb
		}})
	if err != nil {
		t.Fatal(err)
	}

	e, err := PolicyComparison([]string{"ICOUNT", "TEST_EXPSWEEP_HYBRID"}, "", 4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	o := Opts{Runs: 1, Warmup: 500, Measure: 1_000, Seed: 1}
	jobs, err := Jobs(e, o)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		k := j.Key(o)
		if keys[k] {
			t.Fatalf("duplicate cache key %s", k)
		}
		keys[k] = true
	}

	res, err := Runner{Workers: 2}.RunExperiment(context.Background(), e, o)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Lookup("TEST_EXPSWEEP_HYBRID.2.8")
	if len(pts) == 0 {
		t.Fatalf("custom policy series missing; have %v", func() []string {
			var names []string
			for _, s := range res.Series {
				names = append(names, s.Name)
			}
			return names
		}())
	}
	for _, p := range pts {
		if p.IPC <= 0 {
			t.Errorf("custom policy point %s/%d has IPC %v", p.Label, p.Threads, p.IPC)
		}
	}

	if _, err := PolicyComparison([]string{"NOT_REGISTERED"}, "", 4, 2, 8); err == nil {
		t.Error("unknown fetch policy accepted")
	}
	if _, err := PolicyComparison([]string{"ICOUNT"}, "NOT_REGISTERED", 4, 2, 8); err == nil {
		t.Error("unknown issue policy accepted")
	}
}

// TestIssuePolicyRestatedAsLess: each built-in issue policy restated as a
// total comparison through the public API, breaking every tie on
// IssueInfo.Age, runs the built-in's machine cycle for cycle. Age is a
// candidate's rank in the merged issue stream; were it globalAge,
// OLDEST_FIRST restated would diverge from 2 threads up, because the stream
// is not globalAge order for threads fetched in the same cycle. The
// restated policies read Optimistic and Speculative without declaring
// anything: the core fills every IssueInfo field.
func TestIssuePolicyRestatedAsLess(t *testing.T) {
	older := func(a, b smt.IssueInfo) bool { return a.Age < b.Age }
	// firstThenOlder puts the instructions first accepts ahead of the
	// rest, oldest-first within each group.
	firstThenOlder := func(first func(smt.IssueInfo) bool) func(a, b smt.IssueInfo) bool {
		return func(a, b smt.IssueInfo) bool {
			if fa, fb := first(a), first(b); fa != fb {
				return fa
			}
			return older(a, b)
		}
	}
	restated := map[smt.IssueAlg]func(a, b smt.IssueInfo) bool{
		smt.IssueOldestFirst: older,
		smt.IssueOptLast:     firstThenOlder(func(i smt.IssueInfo) bool { return !i.Optimistic }),
		smt.IssueSpecLast:    firstThenOlder(func(i smt.IssueInfo) bool { return !i.Speculative }),
		smt.IssueBranchFirst: firstThenOlder(func(i smt.IssueInfo) bool { return i.Branch }),
	}
	o := Opts{Runs: 1, Warmup: 10_000, Measure: 30_000, Seed: 1}
	for _, builtin := range []smt.IssueAlg{smt.IssueOldestFirst, smt.IssueOptLast, smt.IssueSpecLast, smt.IssueBranchFirst} {
		name := "TEST_LESS_" + string(builtin)
		pol := smt.IssuePolicy{Name: name, Less: restated[builtin]}
		if err := smt.RegisterIssuePolicy(pol); err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 8} {
			cfg := ICount28(threads)
			cfg.IssuePolicy = builtin
			want := Simulate(cfg, 0, o.Seed, o, 0, nil)
			cfg.IssuePolicy = smt.IssueAlg(name)
			if got := Simulate(cfg, 0, o.Seed, o, 0, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at %d threads: %d cycles, built-in %s %d", name, threads, got.Cycles, builtin, want.Cycles)
			}
		}
	}
}
