package core

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestFetchGroupStopsAtBlockBoundary: a fetch group never crosses the
// 32-byte I-cache bank granule (the cache output bus width), so groups
// starting mid-block are shorter — the paper's "PC alignment" fetch
// fragmentation.
func TestFetchGroupStopsAtBlockBoundary(t *testing.T) {
	cfg := DefaultConfig(1)
	p := MustNew(cfg, buildTraces(t, 1, 21))
	th := p.threads[0]
	// Warm the I-cache so fetch is not miss-limited.
	p.Run(5_000, 200_000)

	// Force a mid-block PC and observe the group size on the next fetch.
	base := th.prog.Base
	misaligned := base + 5*isa.InstrBytes // 5 instructions into a block
	for (misaligned & 31) == 0 {
		misaligned += isa.InstrBytes
	}
	th.fetchPC = misaligned
	th.wrongPath = true // detach from the oracle: fetch is pure mechanics here
	th.fetchBlockedUntil = 0
	before := p.stats.Fetched
	p.decodeLatch = p.decodeLatch[:0]
	p.fetchStage()
	got := p.stats.Fetched - before
	max := int64(8 - (misaligned%32)/isa.InstrBytes)
	if got > max {
		t.Fatalf("fetched %d instructions from a mid-block PC, max %d", got, max)
	}
}

// TestFetchBankConflictSkipsThread: two threads whose PCs map to the same
// I-cache bank cannot both fetch in one cycle; the lower-priority thread is
// skipped, not stalled.
func TestFetchBankConflictSkipsThread(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.FetchThreads = 2
	progs := buildTraces(t, 2, 33)
	p := MustNew(cfg, progs)
	p.Run(5_000, 400_000) // warm both I-caches

	// Put both threads on resident PCs in the same bank: a PC whose line
	// is not resident would lose its slot to the I-miss, not to the bank.
	t0, t1 := p.threads[0], p.threads[1]
	residentPC := func(th *threadState, bank int) int64 {
		t.Helper()
		end := th.prog.PCOf(len(th.prog.Code))
		for pc := th.prog.Base; pc < end; pc += 32 {
			if (bank < 0 || p.mem.InstrBank(pc) == bank) && p.mem.ProbeInstr(p.cycle, pc) {
				return pc
			}
		}
		t.Fatalf("no resident line in bank %d of thread %d's code", bank, th.id)
		return 0
	}
	pc0 := residentPC(t0, -1)
	pc1 := residentPC(t1, p.mem.InstrBank(pc0))
	t0.fetchPC, t1.fetchPC = pc0, pc1
	t0.wrongPath, t1.wrongPath = true, true
	t0.fetchBlockedUntil, t1.fetchBlockedUntil = 0, 0
	t0.imissUntil, t1.imissUntil = 0, 0
	p.decodeLatch = p.decodeLatch[:0]

	beforeT0 := t0.nextSeq
	beforeT1 := t1.nextSeq
	p.fetchStage()
	fetched0 := t0.nextSeq - beforeT0
	fetched1 := t1.nextSeq - beforeT1
	if fetched0 > 0 && fetched1 > 0 {
		t.Fatalf("both threads fetched from the same bank in one cycle (%d, %d)", fetched0, fetched1)
	}
	if fetched0 == 0 && fetched1 == 0 {
		t.Fatal("neither thread fetched")
	}
}

// TestWrongPathFetchOccurs: with real prediction the machine must fetch
// down wrong paths (the paper models this explicitly); with perfect
// prediction it must not.
func TestWrongPathFetchOccurs(t *testing.T) {
	cfg := DefaultConfig(1)
	p := MustNew(cfg, live(workload.MustNew(workload.Profiles()[5], 17, 0))) // espresso: branchy
	p.Run(40_000, 2_000_000)
	if p.Stats().FetchedWrongPath == 0 {
		t.Fatal("no wrong-path instructions fetched under real prediction")
	}

	cfg.Branch.Predictor = branch.Perfect
	p2 := MustNew(cfg, live(workload.MustNew(workload.Profiles()[5], 17, 0)))
	p2.Run(40_000, 2_000_000)
	if got := p2.Stats().FetchedWrongPath; got != 0 {
		t.Fatalf("%d wrong-path instructions under perfect prediction", got)
	}
	if p2.Stats().Mispredicts != 0 {
		t.Fatal("mispredict squashes under perfect prediction")
	}
}

// TestMisfetchPenaltyCounted: decode-redirect misfetches occur (BTB-cold
// taken branches) and are charged as fetch bubbles.
func TestMisfetchPenaltyCounted(t *testing.T) {
	cfg := DefaultConfig(1)
	// espresso: call- and jump-rich, so cold-BTB taken transfers occur.
	p := MustNew(cfg, live(workload.MustNew(workload.Profiles()[5], 13, 0)))
	p.Run(50_000, 2_000_000)
	if p.Stats().Misfetches == 0 {
		t.Fatal("no misfetches recorded; cold BTB must cause decode redirects")
	}
}

// TestFetchPolicySwitchRelievesClog: on a mix containing the IQ-clogging
// xlisp, ICOUNT must reduce integer-queue-full cycles relative to RR (the
// paper's Table 4 mechanism on a hostile mix). Note the paper observes
// ICOUNT can *favor* low-ILP threads, so we assert the queue mechanism,
// not per-thread starvation.
func TestFetchPolicySwitchRelievesClog(t *testing.T) {
	if testing.Short() {
		t.Skip("selection test")
	}
	iqFull := func(alg policy.FetchAlg) float64 {
		profiles := workload.Profiles()
		progs := live(
			workload.MustNew(profiles[6], 3, 0), // xlisp: IQ-clogging
			workload.MustNew(profiles[0], 3, 1), // alvinn: efficient
			workload.MustNew(profiles[4], 3, 2), // tomcatv: efficient
			workload.MustNew(profiles[2], 3, 3), // fpppp
		)
		cfg := DefaultConfig(4)
		cfg.FetchPolicy = alg
		cfg.FetchThreads = 2
		p := MustNew(cfg, progs)
		p.Run(30_000, 0)
		p.ResetStats()
		s := p.Run(200_000, 0)
		return frac(s.IntIQFullCycles, s.Cycles)
	}
	rr := iqFull(policy.RR)
	ic := iqFull(policy.ICount)
	if ic >= rr {
		t.Fatalf("ICOUNT should reduce IQ-full cycles on a clogging mix (rr=%.3f ic=%.3f)", rr, ic)
	}
}

// TestICacheMissBlocksOnlyThatThread: one thread's I-miss must not stop the
// other thread from fetching.
func TestICacheMissBlocksOnlyThatThread(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.FetchThreads = 2
	p := MustNew(cfg, buildTraces(t, 2, 41))
	p.Run(10_000, 600_000)
	t0 := p.threads[0]
	// Force thread 0 into a long artificial I-miss stall.
	t0.imissUntil = p.cycle + 1000
	before := p.threads[1].nextSeq
	for i := 0; i < 50; i++ {
		p.Step()
	}
	if p.threads[1].nextSeq == before {
		t.Fatal("thread 1 fetched nothing while thread 0 stalled")
	}
}

// brCountSeen counts the comparisons in which the policy below saw a
// non-zero BrCount.
var brCountSeen int

// TestUndeclaredCountersAreFilled: a fetch policy that sets only a name
// and a comparison reads every counter but IQPosn without declaring it —
// here BrCount, live on an 8-thread machine.
func TestUndeclaredCountersAreFilled(t *testing.T) {
	const name = "TEST_BRCOUNT_UNDECLARED"
	if _, ok := policy.LookupFetch(name); !ok {
		pol := policy.Fetch{Name: name, Less: func(a, b policy.ThreadFeedback) bool {
			if a.BrCount != 0 || b.BrCount != 0 {
				brCountSeen++
			}
			return a.BrCount < b.BrCount
		}}
		if err := policy.RegisterFetch(pol); err != nil {
			t.Fatal(err)
		}
	}
	brCountSeen = 0
	cfg := DefaultConfig(8)
	cfg.FetchPolicy = policy.FetchAlg(name)
	cfg.FetchThreads = 2
	p := MustNew(cfg, buildTraces(t, cfg.Threads, 5))
	p.Run(20_000, 0)
	if brCountSeen == 0 {
		t.Fatal("the policy's comparison never saw a non-zero BrCount")
	}
}
