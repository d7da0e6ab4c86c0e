package exp

import (
	"context"
	"strings"
	"testing"

	"repro/smt"
)

// TestCustomPredictorSweepsAndCaches registers a trivial custom predictor
// and sweeps it against gshare through the engine: predictor names must
// flow into distinct cache keys, and the custom series must produce
// throughput like a built-in's.
func TestCustomPredictorSweepsAndCaches(t *testing.T) {
	// Registration is global and permanent; the name is unique to this test.
	err := smt.RegisterPredictor("test_expsweep_alwaystaken",
		func(cfg smt.BranchConfig) (smt.DirEngine, error) { return alwaysTaken{}, nil })
	if err != nil {
		t.Fatal(err)
	}

	e, err := PredictorComparison([]string{"gshare", "test_expsweep_alwaystaken"}, "", "", 2, 1, 8)
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
	pts := res.Lookup("test_expsweep_alwaystaken")
	if len(pts) == 0 {
		t.Fatal("custom predictor series missing")
	}
	for _, p := range pts {
		if p.IPC <= 0 {
			t.Errorf("custom predictor point %s/%d has IPC %v", p.Label, p.Threads, p.IPC)
		}
	}
}

// alwaysTaken predicts every conditional branch taken with no confidence.
type alwaysTaken struct{}

func (alwaysTaken) Predict(history uint32, pc int64) (bool, bool) { return true, false }
func (alwaysTaken) Update(history uint32, pc int64, taken bool)   {}

// TestPredictorComparisonValidates pins the up-front validation: unknown
// names fail with the registered menu in the message, before any job runs.
func TestPredictorComparisonValidates(t *testing.T) {
	_, err := PredictorComparison([]string{"NOPE"}, "", "", 4, 2, 8)
	if err == nil || !strings.Contains(err.Error(), "gshare") {
		t.Errorf("unknown predictor error should list valid names, got %v", err)
	}
	if _, err := PredictorComparison(nil, "", "", 4, 2, 8); err == nil {
		t.Error("empty predictor list accepted")
	}
	if _, err := PredictorComparison([]string{"gshare", "gshare"}, "", "", 4, 2, 8); err == nil {
		t.Error("duplicate predictor accepted")
	}
	if _, err := PredictorComparison([]string{"gshare"}, "NOT_REGISTERED", "", 4, 2, 8); err == nil {
		t.Error("unknown fetch policy accepted")
	}
	if _, err := PredictorComparison([]string{"gshare"}, "", "NOT_REGISTERED", 4, 2, 8); err == nil {
		t.Error("unknown issue policy accepted")
	}
}
