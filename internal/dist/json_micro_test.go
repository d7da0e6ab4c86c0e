package dist

import (
	"encoding/json"
	"testing"

	"repro/internal/exp"
	"repro/smt"
)

func BenchmarkPayloadJSON(b *testing.B) {
	p := JobPayload{Config: exp.ICount28(2), Run: 1, Seed: 7, Warmup: 200, Measure: 1500}
	raw, _ := json.Marshal(p)
	b.Logf("payload bytes: %d", len(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, _ = json.Marshal(p)
		var q JobPayload
		json.Unmarshal(raw, &q)
	}
}

func BenchmarkResultsJSON(b *testing.B) {
	res := exp.Simulate(exp.ICount28(2), 0, 1, exp.Opts{Runs: 1, Warmup: 200, Measure: 1500}, 0, nil)
	tr := ResultsRequest{WorkerID: "w1", TaskID: "t1", Results: res}
	raw, _ := json.Marshal(tr)
	b.Logf("result bytes: %d", len(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, _ = json.Marshal(tr)
		var q ResultsRequest
		json.Unmarshal(raw, &q)
	}
}

func BenchmarkSimulateSmallJob(b *testing.B) {
	var res smt.Results
	for i := 0; i < b.N; i++ {
		res = exp.Simulate(exp.ICount28(2), 0, 1, exp.Opts{Runs: 1, Warmup: 200, Measure: 1500}, 0, nil)
	}
	_ = res
}
