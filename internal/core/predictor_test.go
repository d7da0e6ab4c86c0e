package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/policy"
)

// TestDefaultFingerprintFrozen pins the content addresses of the default
// machine and of perfect prediction. These hashes key the durable result
// cache: if either moves, every cached result ever produced is orphaned.
// They follow Config's JSON, so re-pin them only for a deliberate change
// to it: a field added, renamed, reordered or removed.
func TestDefaultFingerprintFrozen(t *testing.T) {
	if got := DefaultConfig(8).Fingerprint(); got != "1aa752f56d49fa4028752e2a798cdee9" {
		t.Errorf("DefaultConfig(8) fingerprint moved: %s", got)
	}
	perfect := DefaultConfig(4)
	perfect.Branch.Predictor = branch.Perfect
	if got := perfect.Fingerprint(); got != "734089b69c332243c252b037fe559074" {
		t.Errorf("DefaultConfig(4)+perfect predictor fingerprint moved: %s", got)
	}

	// Naming the default predictor explicitly is the same machine and must
	// produce the same address; any other predictor must not.
	named := DefaultConfig(8)
	named.Branch.Predictor = branch.Gshare
	if named.Fingerprint() != DefaultConfig(8).Fingerprint() {
		t.Error("explicit gshare fingerprints differently from the default")
	}
	skewed := DefaultConfig(8)
	skewed.Branch.Predictor = branch.Gskewed
	if skewed.Fingerprint() == DefaultConfig(8).Fingerprint() {
		t.Error("gskewed collides with the default fingerprint")
	}

	// VarFetchRate=false is the default machine; true is a new one.
	vfr := DefaultConfig(8)
	vfr.VarFetchRate = true
	if vfr.Fingerprint() == DefaultConfig(8).Fingerprint() {
		t.Error("VarFetchRate=true collides with the default fingerprint")
	}
}

// TestVariantAddresses: on every Variants machine the content address
// survives a JSON round trip (the path a config takes through smtd), and an
// empty fetch, issue or predictor name addresses the same machine as the
// default it runs (RR, OLDEST_FIRST, gshare), in both directions.
func TestVariantAddresses(t *testing.T) {
	type spelling struct {
		name     string
		field    func(*Config) *string
		explicit string
	}
	spellings := []spelling{
		{"fetch", func(c *Config) *string { return (*string)(&c.FetchPolicy) }, string(policy.RR)},
		{"issue", func(c *Config) *string { return (*string)(&c.IssuePolicy) }, string(policy.OldestFirst)},
		{"predictor", func(c *Config) *string { return &c.Branch.Predictor }, branch.DefaultPredictor},
	}
	for _, v := range Variants() {
		want := v.Config.Fingerprint()
		raw, err := json.Marshal(v.Config)
		if err != nil {
			t.Fatal(err)
		}
		var rt Config
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if got := rt.Fingerprint(); got != want {
			t.Errorf("%s: JSON round trip moved the address %s -> %s", v.Name, want, got)
		}
		for _, sp := range spellings {
			other := v.Config
			switch f := sp.field(&other); *f {
			case "":
				*f = sp.explicit
			case sp.explicit:
				*f = ""
			default:
				continue
			}
			if got := other.Fingerprint(); got != want {
				t.Errorf("%s: %s name %q addresses %s, %q addresses %s",
					v.Name, sp.name, *sp.field(&other), got, *sp.field(&v.Config), want)
			}
		}
	}
}

// runStats runs cfg over the standard test programs and returns the stats.
func runStats(t *testing.T, cfg Config, seed uint64) Stats {
	t.Helper()
	p := MustNew(cfg, buildTraces(t, cfg.Threads, seed))
	return p.Run(30000, 400000)
}

// TestRegisteredPredictorsRun exercises every built-in direction scheme
// through the full pipeline and checks that the prediction quality
// ordering is sane: a trained predictor must beat never-taken.
func TestRegisteredPredictorsRun(t *testing.T) {
	mispredRate := map[string]float64{}
	for _, name := range []string{branch.Gshare, branch.Smiths, branch.Static, branch.Gskewed, branch.None} {
		cfg := DefaultConfig(2)
		cfg.Branch.Predictor = name
		s := runStats(t, cfg, 17)
		if s.Committed < 30000 {
			t.Fatalf("%s: committed only %d in %d cycles", name, s.Committed, s.Cycles)
		}
		mispredRate[name] = s.CondMispredictRate()
	}
	if mispredRate[branch.Gshare] >= mispredRate[branch.None] {
		t.Errorf("gshare mispredict rate %.3f not below none's %.3f",
			mispredRate[branch.Gshare], mispredRate[branch.None])
	}
	if mispredRate[branch.Gskewed] >= mispredRate[branch.None] {
		t.Errorf("gskewed mispredict rate %.3f not below none's %.3f",
			mispredRate[branch.Gskewed], mispredRate[branch.None])
	}
}

// TestDefaultPredictorByteIdentical checks that resolving the empty
// predictor name through the registry reproduces the pre-registry machine
// exactly, counter for counter.
func TestDefaultPredictorByteIdentical(t *testing.T) {
	base := runStats(t, DefaultConfig(4), 23)
	named := DefaultConfig(4)
	named.Branch.Predictor = branch.Gshare
	got := runStats(t, named, 23)
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("explicit gshare diverges from default:\nbase %+v\ngot  %+v", base, got)
	}
}

// TestVarFetchRateThrottles checks the confidence throttle engages only
// when enabled, changes the simulation when it does, and accounts the
// withheld slots.
func TestVarFetchRateThrottles(t *testing.T) {
	off := runStats(t, DefaultConfig(4), 31)
	if off.VarFetchThrottled != 0 {
		t.Fatalf("VFR off but %d slots throttled", off.VarFetchThrottled)
	}

	on := DefaultConfig(4)
	on.VarFetchRate = true
	s := runStats(t, on, 31)
	if s.VarFetchThrottled == 0 {
		t.Fatal("VFR on but no slots throttled")
	}
	if s.Cycles == off.Cycles && s.Fetched == off.Fetched {
		t.Fatal("VFR on did not change the simulation")
	}
	if s.Committed < 30000 {
		t.Fatalf("VFR committed only %d in %d cycles", s.Committed, s.Cycles)
	}

	// Determinism must survive the throttle.
	s2 := runStats(t, on, 31)
	if !reflect.DeepEqual(s, s2) {
		t.Fatal("VFR run is nondeterministic")
	}
}

// TestConfidenceCountersSane checks the per-thread confidence diagnostics:
// a real predictor flags some fetched branches low-confidence, the
// per-thread mispredict split sums to the total, and the oracle never
// flags anything.
func TestConfidenceCountersSane(t *testing.T) {
	s := runStats(t, DefaultConfig(2), 37)
	var lowConf, mispred int64
	for t2 := 0; t2 < 2; t2++ {
		lowConf += s.LowConfFetched[t2]
		mispred += s.MispredictsByThread[t2]
	}
	if lowConf == 0 {
		t.Error("gshare flagged no fetched branch low-confidence")
	}
	if lowConf > s.Fetched {
		t.Errorf("low-confidence branches %d exceed fetched %d", lowConf, s.Fetched)
	}
	if mispred != s.Mispredicts {
		t.Errorf("per-thread mispredicts sum %d != total %d", mispred, s.Mispredicts)
	}

	oracle := DefaultConfig(2)
	oracle.Branch.Predictor = branch.Perfect
	so := runStats(t, oracle, 37)
	for t2, n := range so.LowConfFetched {
		if n != 0 {
			t.Errorf("oracle thread %d flagged %d low-confidence branches", t2, n)
		}
	}
}

// TestLowConfFeedbackDrivesCustomPolicy registers a fetch policy ordering
// threads by fewest in-flight low-confidence branches — BRCOUNT weighted
// by the predictor's own confidence — and checks the feedback field is
// live end to end.
func TestLowConfFeedbackDrivesCustomPolicy(t *testing.T) {
	const name = "LOWCONF_TEST"
	if _, ok := policy.LookupFetch(name); !ok {
		pol := policy.Fetch{Name: name, Needs: policy.FeedbackNeeds{LowConf: true},
			Less: func(a, b policy.ThreadFeedback) bool { return a.LowConf < b.LowConf }}
		if err := policy.RegisterFetch(pol); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(4)
	cfg.FetchPolicy = policy.FetchAlg(name)
	cfg.FetchThreads = 2
	s := runStats(t, cfg, 41)
	if s.Committed < 30000 {
		t.Fatalf("LOWCONF policy committed only %d in %d cycles", s.Committed, s.Cycles)
	}
}

var fingerprintSink string

// BenchmarkFingerprint is the layer number behind every content address:
// one Config.Fingerprint of the 8-thread baseline, as each grid point of a
// sweep pays once (run with -benchmem).
func BenchmarkFingerprint(b *testing.B) {
	cfg := DefaultConfig(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprintSink = cfg.Fingerprint()
	}
}
