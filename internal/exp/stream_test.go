package exp

import (
	"context"
	"testing"

	"repro/smt"
)

// A custom fetch policy registered through the public smt API must sweep
// through the engine like a built-in, with its jobs content-addressed by
// policy name (distinct from every built-in's cache key).
func TestCustomPolicySweepsAndCaches(t *testing.T) {
	// Registration is global and permanent; the name is unique to this test.
	err := smt.RegisterFetchPolicy(smt.FetchPolicyFunc("TEST_EXPSWEEP_HYBRID",
		func(a, b smt.ThreadFeedback) bool {
			sa, sb := a.ICount+a.BrCount, b.ICount+b.BrCount
			return sa < sb
		}, false))
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
