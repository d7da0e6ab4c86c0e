package smt

import (
	"testing"

	"repro/internal/state"
)

// fuzzConfig is the 4-thread ICOUNT.2.8 machine with its tables shrunk —
// same pipeline, same state walk — so a snapshot's body is a few KB, most
// of it pipeline state, and the fuzzer spends its mutations where restore has
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

// FuzzRestoreSnapshot feeds arbitrary state to the one decoder in the tree
// that takes machine state from disk and the network. RestoreSnapshot must
// never panic; and whatever it accepts must be a machine the cycle loop can
// run — restore's job is to refuse everything else. The fuzzer mutates the
// inflated body, which each input is deflated from through state.Pack, so
// its mutations reach the state walk instead of dying in the deflate
// stream; internal/state's FuzzReader covers the stream itself. The corpus
// is seeded with a real 4-thread snapshot's body and its truncations; a
// crasher, once fixed, is committed under testdata/fuzz/FuzzRestoreSnapshot
// (none found so far).
func FuzzRestoreSnapshot(f *testing.F) {
	cfg := fuzzConfig()
	spec := WorkloadMix(4, 0, 7)
	seed := MustNew(cfg, spec)
	seed.Warmup(2_000)
	data, err := seed.SaveSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	body, err := state.Unpack(data, ModelVersion)
	if err != nil {
		f.Fatal(err)
	}
	for n := len(body); n > 0; n /= 2 {
		f.Add(body[:n])
	}
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, body []byte) {
		sim := MustNew(cfg, spec)
		if err := sim.RestoreSnapshot(state.Pack(ModelVersion, body)); err != nil {
			return
		}
		// Step on this goroutine, under a cycle bound: a state that runs
		// but never commits is tolerable, one that panics is not.
		p := sim.proc
		for c, stop := 0, p.Committed()+2_000; c < 20_000 && p.Committed() < stop; c++ {
			p.Step()
		}
		sim.Results()
	})
}
