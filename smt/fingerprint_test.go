package smt

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// TestConfigFingerprint: the content address must be deterministic,
// sensitive to every machine-relevant field (nested subsystem configs
// included), and stable across a JSON round trip — the path a config takes
// through the smtd service.
func TestConfigFingerprint(t *testing.T) {
	base := DefaultConfig(8)
	if base.Fingerprint() != DefaultConfig(8).Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}

	mutate := map[string]func(*Config){
		"threads":      func(c *Config) { c.Threads = 4 },
		"fetch policy": func(c *Config) { c.FetchPolicy = FetchICount },
		"fetch width":  func(c *Config) { c.FetchThreads = 2 },
		"itag":         func(c *Config) { c.ITAG = true },
		"iq size":      func(c *Config) { c.IQSize = 64 },
		"nested regs":  func(c *Config) { c.Rename.ExcessRegs = 90 },
		"nested btb":   func(c *Config) { c.Branch.BTBEntries *= 2 },
		"nested mem":   func(c *Config) { c.Mem.InfiniteBW = true },
	}
	for name, mod := range mutate {
		cfg := DefaultConfig(8)
		mod(&cfg)
		if cfg.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}

	// Workers recompute snapshot keys from the config they decode, so
	// every registered machine must keep its address across the wire.
	machines := map[string]Config{"default": base}
	for _, v := range core.Variants() {
		machines[v.Name] = v.Config
	}
	for name, cfg := range machines {
		var rt Config
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rt.Fingerprint() != cfg.Fingerprint() {
			t.Errorf("%s: JSON round trip changed the fingerprint", name)
		}
	}
}

// TestBuiltinFingerprintsFrozen pins the content addresses of the paper's
// standard machines. What it guards is drift in the encoding: a field added,
// renamed, reordered or removed, or a change to how a value marshals to
// JSON, moves these hashes and with them every result and checkpoint key a
// durable cache holds. Re-pin them only for such a change, made on purpose.
// The relational checks say what the address must see and what it must not:
// spelling the default predictor out is the same machine; another
// predictor, perfect prediction or the variable fetch rate is not.
func TestBuiltinFingerprintsFrozen(t *testing.T) {
	icount28 := DefaultConfig(8)
	icount28.FetchPolicy = FetchICount
	icount28.FetchThreads = 2
	mixed := DefaultConfig(4)
	mixed.FetchPolicy = FetchIQPosn
	mixed.IssuePolicy = IssueBranchFirst

	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"RR.1.8 x8", DefaultConfig(8), "1aa752f56d49fa4028752e2a798cdee9"},
		{"ICOUNT.2.8 x8", icount28, "1944489e1e935f82b593958350d14ab9"},
		{"superscalar", Superscalar(), "02560149250dcfb7408e045253c2eb24"},
		{"IQPOSN/BRANCH_FIRST x4", mixed, "d83bc2f8fd0c23d9e2945e08c4723a2f"},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s fingerprint = %s, want frozen %s", tc.name, got, tc.want)
		}
	}

	base := DefaultConfig(8).Fingerprint()
	named := DefaultConfig(8)
	named.Branch.Predictor = PredGshare
	if named.Fingerprint() != base {
		t.Error("explicit gshare fingerprints differently from the default")
	}
	for name, mod := range map[string]func(*Config){
		"gskewed":      func(c *Config) { c.Branch.Predictor = PredGskewed },
		"perfect":      func(c *Config) { c.Branch.Predictor = PredPerfect },
		"VarFetchRate": func(c *Config) { c.VarFetchRate = true },
	} {
		cfg := DefaultConfig(8)
		mod(&cfg)
		if cfg.Fingerprint() == base {
			t.Errorf("%s collides with the default fingerprint", name)
		}
	}
}

// Custom policies are content-addressed by name: distinct names yield
// distinct fingerprints, the address survives a JSON round trip, and it
// never collides with a built-in's address.
func TestCustomPolicyFingerprintByName(t *testing.T) {
	a := DefaultConfig(4)
	a.FetchPolicy = FetchICountBRCount
	b := DefaultConfig(4)
	b.FetchPolicy = FetchICountWeightedMiss
	c := DefaultConfig(4)
	c.FetchPolicy = FetchICount

	if a.Fingerprint() == b.Fingerprint() {
		t.Error("distinct composite policies share a fingerprint")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("composite collides with built-in")
	}

	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var rt Config
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Fingerprint() != a.Fingerprint() {
		t.Error("JSON round trip changed a name-addressed fingerprint")
	}
}

// TestResultsFetchAvailabilityPartition: the five fetch-outcome fractions
// must sum to 1 — the per-cycle accounting invariant surfaced through the
// public Results schema.
func TestResultsFetchAvailabilityPartition(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FetchPolicy = FetchICount
	cfg.FetchThreads = 2
	sim := MustNew(cfg, WorkloadMix(4, 0, 3))
	res := sim.Run(40_000)
	sum := res.FetchCyclesFrac + res.FetchLostBackPressure + res.FetchLostNoThread +
		res.FetchLostIMiss + res.FetchLostBankConflict
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fetch availability fractions sum to %v, want 1\n%+v", sum, res)
	}
	if res.FetchCyclesFrac <= 0 {
		t.Fatal("machine never fetched")
	}
}
