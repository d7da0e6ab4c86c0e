package smt

import "testing"

// fuzzConfig is the 4-thread ICOUNT.2.8 machine with its tables shrunk —
// same pipeline, same state walk — so a snapshot is a few KB, most of it
// pipeline state, and the fuzzer spends its mutations where restore has
// decisions to make instead of on 38,000 cache tags.
func fuzzConfig() Config {
	cfg := snapshotConfig(PredGshare, FetchICount)
	for l := range cfg.Mem.Caches {
		cfg.Mem.Caches[l].SizeBytes >>= 5
	}
	cfg.Mem.ITLB.Entries, cfg.Mem.DTLB.Entries = 4, 4
	cfg.Branch.BTBEntries, cfg.Branch.PHTEntries, cfg.Branch.HistoryLen = 16, 64, 6
	return cfg
}

// FuzzRestoreSnapshot feeds arbitrary bytes to the one decoder in the tree
// that takes machine state from disk and the network. RestoreSnapshot must
// never panic; and whatever it accepts must be a machine the cycle loop can
// run — restore's job is to refuse everything else. The corpus is seeded
// with a real 4-thread snapshot and its truncations; a crasher, once fixed,
// is committed under testdata/fuzz/FuzzRestoreSnapshot (none found so far).
func FuzzRestoreSnapshot(f *testing.F) {
	cfg := fuzzConfig()
	spec := WorkloadMix(4, 0, 7)
	seed := MustNew(cfg, spec)
	seed.Warmup(2_000)
	data, err := seed.SaveSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	for n := len(data); n > 0; n /= 2 {
		f.Add(data[:n])
	}
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		sim := MustNew(cfg, spec)
		if err := sim.RestoreSnapshot(data); err != nil {
			return
		}
		// Step on this goroutine, under a cycle bound: a state that runs
		// but never commits is tolerable, one that panics is not.
		sim.proc.Run(2_000, 20_000)
		sim.Results()
	})
}
