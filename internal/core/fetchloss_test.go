package core

import (
	"testing"

	"repro/internal/policy"
)

// fetchLossSum adds up the mutually-exclusive per-cycle fetch outcomes.
func fetchLossSum(s Stats) int64 {
	return s.FetchCycles + s.FetchLostBackPressure + s.FetchLostNoThread +
		s.FetchLostIMiss + s.FetchLostBankConflict
}

// TestFetchAccountingInvariant: every cycle is attributed to exactly one
// fetch outcome — instructions delivered, back-pressure, no eligible
// thread, I-cache miss, or cache-fill bank conflict — so the counters must
// partition Cycles exactly. Exercised across all five fetch policies, with
// and without ITAG, on a multithreaded machine busy enough to hit every
// cause.
func TestFetchAccountingInvariant(t *testing.T) {
	algs := []policy.FetchAlg{policy.RR, policy.BRCount, policy.MissCount, policy.ICount, policy.IQPosn}
	for _, alg := range algs {
		for _, itag := range []bool{false, true} {
			alg, itag := alg, itag
			name := alg.String()
			if itag {
				name += "-itag"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig(4)
				cfg.FetchPolicy = alg
				cfg.FetchThreads = 2
				cfg.ITAG = itag
				p := MustNew(cfg, buildTraces(t, 4, 7))
				s := p.Run(30_000, 2_000_000)
				if got := fetchLossSum(s); got != s.Cycles {
					t.Fatalf("fetch accounting leaks: outcomes sum to %d over %d cycles\n"+
						"fetch=%d backpressure=%d nothread=%d imiss=%d bankconflict=%d",
						got, s.Cycles, s.FetchCycles, s.FetchLostBackPressure,
						s.FetchLostNoThread, s.FetchLostIMiss, s.FetchLostBankConflict)
				}
				if s.FetchCycles == 0 {
					t.Fatal("machine never fetched")
				}
			})
		}
	}
}

// TestFetchAccountingInvariantSingleThread covers the superscalar shape,
// where back-pressure and I-miss losses dominate.
func TestFetchAccountingInvariantSingleThread(t *testing.T) {
	p := MustNew(Superscalar(), buildTraces(t, 1, 11))
	s := p.Run(30_000, 2_000_000)
	if got := fetchLossSum(s); got != s.Cycles {
		t.Fatalf("fetch accounting leaks: %d != %d cycles", got, s.Cycles)
	}
}

// TestBankConflictLossAttributed: a deterministic 8-thread run under heavy
// I-cache pressure produces cycles where every selected thread lost to a
// cache-fill bank conflict; those must land in FetchLostBankConflict (the
// counter the old code folded into FetchLostIMiss).
func TestBankConflictLossAttributed(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.FetchThreads = 2
	p := MustNew(cfg, buildTraces(t, 8, 5))
	s := p.Run(60_000, 4_000_000)
	if s.FetchLostBankConflict == 0 {
		t.Fatal("no bank-conflict fetch losses recorded; attribution fix not exercised")
	}
	if got := fetchLossSum(s); got != s.Cycles {
		t.Fatalf("fetch accounting leaks: %d != %d cycles", got, s.Cycles)
	}
}
