package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/policy"
	"repro/internal/snapshot"
)

// policyPairOpts are the frozen budgets behind the policy-pair hash file.
// Small on purpose: the sweep runs every built-in fetch x issue pair.
func policyPairOpts() Opts {
	return Opts{Runs: 1, Warmup: 1_000, Measure: 2_000, Seed: 1}
}

// TestPolicyPairFingerprints pins the Results fingerprint of every
// registered built-in fetch x issue policy pair to the values committed in
// testdata/policy_pairs.golden.json. The golden file extends the frozen-hash
// pattern from the policy-registry redesign one level up: not just "policy
// names still content-address identically" but "every selector still
// simulates identically, cycle for cycle". Hot-path rewrites that must not
// change modeled behavior — sort replacements on the issue and fetch paths,
// scratch-buffer reuse, event-ring changes — are verified against it.
//
// Refresh after an intentional simulator change with:
//
//	go test ./internal/exp -run PolicyPairFingerprints -update
func TestPolicyPairFingerprints(t *testing.T) {
	fetches := policy.FetchNames()
	issues := policy.IssueNames()
	sort.Strings(fetches)
	sort.Strings(issues)

	o := policyPairOpts()
	got := make(map[string]string, len(fetches)*len(issues))
	type result struct {
		pair, hash string
	}
	ch := make(chan result)
	for _, f := range fetches {
		for _, is := range issues {
			f, is := f, is
			go func() {
				cfg := MustFetchScheme(4, f, 2, 8)
				cfg.IssuePolicy = policy.IssueAlg(is)
				res := Simulate(cfg, 0, o.Seed, o, 0, nil)
				ch <- result{f + "/" + is, fingerprint.Of(res)}
			}()
		}
	}
	for i := 0; i < len(fetches)*len(issues); i++ {
		r := <-ch
		got[r.pair] = r.hash
	}

	checkHashFile(t, "policy_pairs.golden.json", got)
}

// checkHashFile compares a name -> Results-fingerprint map with the frozen
// one in testdata/file, in both directions; under -update it rewrites the
// file instead.
func checkHashFile(t *testing.T, file string, got map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, h := range got {
		if want[name] == "" {
			t.Errorf("%s missing from %s (new entry? rerun with -update)", name, path)
			continue
		}
		if h != want[name] {
			t.Errorf("%s: Results fingerprint drifted: got %s want %s", name, h, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s in %s is no longer produced", name, path)
		}
	}
}

// TestPolicyPairFingerprintsWarm re-runs the frozen-hash sweep through the
// acceleration layers — pre-decoded trace replay plus warmup checkpoints,
// with a second pass that restores every pair's warmup from the shared
// store — and pins the results to the SAME golden hashes as the cold sweep.
// This is the subsystem's acceptance gate: checkpointing and replay must be
// invisible in every simulated bit across every built-in policy pair.
func TestPolicyPairFingerprintsWarm(t *testing.T) {
	if *update {
		t.Skip("golden file is owned by TestPolicyPairFingerprints")
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "policy_pairs.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	fetches := policy.FetchNames()
	issues := policy.IssueNames()
	sort.Strings(fetches)
	sort.Strings(issues)
	o := policyPairOpts()
	pairs := len(fetches) * len(issues)

	store := snapshot.NewStore(newMapSnapshots())
	env := WarmEnv{Snapshots: store, Traces: snapshot.NewTraceCache(0)}

	// Pass 1 fills the snapshot store cold; pass 2 restores every warmup.
	// Both passes must reproduce the frozen hashes exactly.
	for pass := 0; pass < 2; pass++ {
		type result struct {
			pair, hash string
		}
		ch := make(chan result)
		for _, f := range fetches {
			for _, is := range issues {
				f, is := f, is
				go func() {
					cfg := MustFetchScheme(4, f, 2, 8)
					cfg.IssuePolicy = policy.IssueAlg(is)
					res := SimulateEnv(cfg, 0, o.Seed, o, 0, nil, env)
					ch <- result{f + "/" + is, fingerprint.Of(res)}
				}()
			}
		}
		for i := 0; i < pairs; i++ {
			r := <-ch
			if want[r.pair] == "" {
				t.Errorf("pass %d: pair %s missing from golden file", pass, r.pair)
				continue
			}
			if r.hash != want[r.pair] {
				t.Errorf("pass %d: pair %s drifted under checkpoint+replay: got %s want %s",
					pass, r.pair, r.hash, want[r.pair])
			}
		}
	}
	st := store.Stats()
	if st.Misses != int64(pairs) || st.Puts != int64(pairs) || st.Hits != int64(pairs) {
		t.Errorf("store stats = %+v, want %d cold fills then %d restores", st, pairs, pairs)
	}
	if ts := env.Traces.Stats(); ts.Builds != 4 {
		t.Errorf("trace cache stats = %+v, want one shared build per context of the 4-thread rotation", ts)
	}
}
