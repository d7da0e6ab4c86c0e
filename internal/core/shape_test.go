package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/workload"
)

// TestPipelineParameters pins the Figure 2 stage arithmetic: the SMT
// pipeline has two register-read stages (issue-to-exec 3) and commits two
// stages after exec; the superscalar one and one. ITAG adds a front stage.
func TestPipelineParameters(t *testing.T) {
	smtCfg := DefaultConfig(1)
	ssCfg := Superscalar()
	if got := smtCfg.execOffset(); got != 3 {
		t.Errorf("SMT execOffset = %d, want 3", got)
	}
	if got := ssCfg.execOffset(); got != 2 {
		t.Errorf("superscalar execOffset = %d, want 2", got)
	}
	if got := smtCfg.commitDelay(); got != 2 {
		t.Errorf("SMT commitDelay = %d, want 2", got)
	}
	if got := ssCfg.commitDelay(); got != 1 {
		t.Errorf("superscalar commitDelay = %d, want 1", got)
	}
	if got := smtCfg.misfetchPenalty(); got != 2 {
		t.Errorf("misfetch penalty = %d, want 2", got)
	}
	smtCfg.ITAG = true
	if got := smtCfg.misfetchPenalty(); got != 3 {
		t.Errorf("ITAG misfetch penalty = %d, want 3", got)
	}
	if got := smtCfg.redirectBubble(); got != 1 {
		t.Errorf("ITAG redirect bubble = %d, want 1", got)
	}
}

func TestConfigValidationRejects(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Threads = 0 },
		func(c *Config) { c.FetchThreads = 9 },
		func(c *Config) { c.FetchPerThread = 0 },
		func(c *Config) { c.IQSize = 0 },
		func(c *Config) { c.LdStUnits = 7 }, // more ld/st than int units
		func(c *Config) { c.CommitWidth = 0 },
		func(c *Config) { c.DisambigBits = 0 },
		func(c *Config) { c.Rename.ExcessRegs = 0 }, // no renaming registers
		func(c *Config) { c.SpecMode = SpecNoWrongPath + 1 },
		func(c *Config) { c.Mem.Caches[mem.L1D].TransferTime = -1 },
		func(c *Config) { c.Mem.Caches[mem.L2].FillTime = -1 },
		func(c *Config) { c.Mem.Caches[mem.L3].LatencyToNext = -1 },
		func(c *Config) { c.Mem.Caches[mem.L1I].AccessEvery = 4 },  // an L1 has no port throttle
		func(c *Config) { c.Mem.MemLatency = maxEventHorizon / 4 }, // each latency in range, their sum not
	}
	for i, mod := range cases {
		cfg := DefaultConfig(8)
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if err := DefaultConfig(MaxThreads).Validate(); err != nil {
		t.Errorf("%d contexts rejected: %v", MaxThreads, err)
	}
	if err := DefaultConfig(MaxThreads + 1).Validate(); err == nil || !strings.Contains(err.Error(), "Threads") {
		t.Errorf("%d contexts: got %v, want an error naming Threads", MaxThreads+1, err)
	}
}

// TestFetchPicksBeyondEight builds and steps the widest-fetching machine
// an inline grid has asked smtd for: 16 contexts, all fetched every cycle,
// over a 32-bank I-cache — so a cycle can hold more than the eight picks
// the default I-cache's eight banks allow.
func TestFetchPicksBeyondEight(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.FetchThreads, cfg.FetchPerThread, cfg.FetchTotal = 16, 1, 16
	cfg.Mem.Caches[mem.L1I].Banks = 32
	cfg.Mem.Caches[mem.L1I].BankGranule = 4
	p := MustNew(cfg, buildTraces(t, 16, 1))
	if s := p.Run(20_000, 400_000); s.Committed < 20_000 {
		t.Fatalf("committed %d of 20000 in %d cycles", s.Committed, s.Cycles)
	}
}

func TestFetchName(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.FetchPolicy = policy.ICount
	cfg.FetchThreads = 2
	cfg.FetchPerThread = 8
	if got := cfg.FetchName(); got != "ICOUNT.2.8" {
		t.Fatalf("FetchName = %q", got)
	}
}

// runIPC measures a configuration briefly for shape tests.
func runIPC(t *testing.T, cfg Config, seed uint64, insns int64) float64 {
	t.Helper()
	p := MustNew(cfg, buildTraces(t, cfg.Threads, seed))
	p.Run(20_000*int64(cfg.Threads), 0) // warmup
	p.ResetStats()
	s := p.Run(insns, 0)
	return s.IPC()
}

// TestShapeICountBeatsRR asserts the paper's central qualitative result:
// at 8 threads the ICOUNT fetch policy outperforms round-robin.
func TestShapeICountBeatsRR(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	rr := DefaultConfig(8)
	rr.FetchThreads = 2
	ic := rr
	ic.FetchPolicy = policy.ICount
	rrIPC := runIPC(t, rr, 2, 300_000)
	icIPC := runIPC(t, ic, 2, 300_000)
	if icIPC <= rrIPC {
		t.Fatalf("ICOUNT.2.8 (%.2f) should beat RR.2.8 (%.2f) at 8 threads", icIPC, rrIPC)
	}
}

// TestShapeICountRelievesIQClog asserts Table 4's mechanism: ICOUNT sharply
// reduces integer-queue-full cycles relative to RR at 8 threads.
func TestShapeICountRelievesIQClog(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	measure := func(alg policy.FetchAlg) float64 {
		cfg := DefaultConfig(8)
		cfg.FetchPolicy = alg
		cfg.FetchThreads = 2
		p := MustNew(cfg, buildTraces(t, 8, 5))
		p.Run(160_000, 0)
		p.ResetStats()
		s := p.Run(400_000, 0)
		return s.IntIQFullFrac()
	}
	rr := measure(policy.RR)
	ic := measure(policy.ICount)
	if ic >= rr {
		t.Fatalf("ICOUNT IQ-full (%.2f) should be below RR (%.2f)", ic, rr)
	}
}

// TestShapeSpecModesCostSingleThread asserts the Section 7 ordering for one
// thread: full speculation > no-passing-branches > no-wrong-path-issue
// (the paper reports -12% and -38%).
func TestShapeSpecModesCostSingleThread(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	mk := func(m SpecMode) Config {
		cfg := DefaultConfig(1)
		cfg.FetchPolicy = policy.ICount
		cfg.SpecMode = m
		return cfg
	}
	full := runIPC(t, mk(SpecFull), 3, 150_000)
	noPass := runIPC(t, mk(SpecNoPassBranch), 3, 150_000)
	noWrong := runIPC(t, mk(SpecNoWrongPath), 3, 150_000)
	if !(full > noPass && noPass > noWrong) {
		t.Fatalf("speculation ordering wrong: full=%.2f noPass=%.2f noWrong=%.2f",
			full, noPass, noWrong)
	}
	if noWrong > full*0.92 {
		t.Errorf("no-wrong-path cost too small: %.2f vs %.2f", noWrong, full)
	}
}

// TestShapePerfectBranchPredictionHelpsOneThreadMore asserts Section 7's
// claim that SMT is less sensitive to branch prediction quality: the
// relative gain from perfect prediction is larger at 1 thread than at 8.
func TestShapePerfectBranchPredictionHelpsOneThreadMore(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	// Build workloads starting from the branchy integer codes (espresso,
	// xlisp, ...), so the single-thread case has mispredictions to recover.
	tracesFor := func(threads int) []*workload.Trace {
		profiles := workload.Profiles()
		progs := make([]*workload.Program, threads)
		for i := 0; i < threads; i++ {
			progs[i] = workload.MustNew(profiles[(5+i)%len(profiles)], 7, i)
		}
		return live(progs...)
	}
	gain := func(threads int) float64 {
		base := DefaultConfig(threads)
		base.FetchPolicy = policy.ICount
		base.FetchThreads = min(2, threads)
		perfect := base
		perfect.Branch.Predictor = branch.Perfect
		run := func(cfg Config) float64 {
			p := MustNew(cfg, tracesFor(threads))
			p.Run(20_000*int64(threads), 0)
			p.ResetStats()
			st := p.Run(120_000*int64(threads), 0)
			return st.IPC()
		}
		return run(perfect) / run(base)
	}
	one := gain(1)
	eight := gain(8)
	if one <= 1.0 {
		t.Fatalf("perfect prediction should help one thread (gain %.3f)", one)
	}
	if eight >= one {
		t.Fatalf("8-thread gain (%.3f) should be below 1-thread gain (%.3f)", eight, one)
	}
}

// TestShapeInfiniteFUsSmallGain asserts that issue bandwidth is not the
// bottleneck (Section 7: infinite FUs gain only 0.5% at 8 threads).
func TestShapeInfiniteFUsSmallGain(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	base := DefaultConfig(8)
	base.FetchPolicy = policy.ICount
	base.FetchThreads = 2
	inf := base
	inf.InfiniteFUs = true
	b := runIPC(t, base, 9, 300_000)
	i := runIPC(t, inf, 9, 300_000)
	if i < b*0.98 {
		t.Fatalf("infinite FUs should not hurt: %.2f vs %.2f", i, b)
	}
	if i > b*1.15 {
		t.Fatalf("infinite FUs gain too large (%.2f vs %.2f): issue bandwidth should not be the bottleneck", i, b)
	}
}

// TestBigQBuffersWithoutSearchGrowth checks BIGQ doubles capacity while
// keeping the searchable window fixed.
func TestBigQBuffersWithoutSearchGrowth(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BigQ = true
	p := MustNew(cfg, buildTraces(t, 2, 1))
	for i := 0; i < 40; i++ {
		p.intQ.Push(&dyn{})
	}
	if window := len(p.intQ.Window()); p.intQ.Cap() != 64 || window != 32 {
		t.Fatalf("BIGQ queue shape: cap %d window %d", p.intQ.Cap(), window)
	}
	p = MustNew(cfg, buildTraces(t, 2, 1))
	p.Run(20_000, 400_000)
	if p.Stats().Committed < 20_000 {
		t.Fatal("BIGQ machine stalled")
	}
}

// TestITAGRuns checks the early-tag-lookup variant executes correctly.
func TestITAGRuns(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.ITAG = true
	cfg.FetchPolicy = policy.ICount
	p := MustNew(cfg, buildTraces(t, 4, 3))
	p.Run(40_000, 800_000)
	if p.Stats().Committed < 40_000 {
		t.Fatal("ITAG machine stalled")
	}
}

// TestIssuePoliciesAllRun exercises every issue policy for correctness (the
// paper finds their throughput nearly identical; here we only require they
// work and stay within a plausible band of each other).
func TestIssuePoliciesAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	var ipcs []float64
	for _, alg := range []policy.IssueAlg{policy.OldestFirst, policy.OptLast, policy.SpecLast, policy.BranchFirst} {
		cfg := DefaultConfig(4)
		cfg.FetchPolicy = policy.ICount
		cfg.FetchThreads = 2
		cfg.IssuePolicy = alg
		ipcs = append(ipcs, runIPC(t, cfg, 11, 150_000))
	}
	for i := 1; i < len(ipcs); i++ {
		ratio := ipcs[i] / ipcs[0]
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("issue policy %d IPC %.2f deviates from OLDEST %.2f", i, ipcs[i], ipcs[0])
		}
	}
}

// TestFig7RegisterBudgetValidity: with 200 registers, 1..5 contexts are
// valid and 7 is rejected (Figure 7 setup).
func TestFig7RegisterBudgetValidity(t *testing.T) {
	for threads := 1; threads <= 5; threads++ {
		cfg := DefaultConfig(threads)
		cfg.Rename.ExcessRegs = 200 - 32*threads
		if err := cfg.Validate(); err != nil {
			t.Errorf("200 regs with %d threads rejected: %v", threads, err)
		}
	}
	cfg := DefaultConfig(7)
	cfg.Rename.ExcessRegs = 200 - 32*7
	if err := cfg.Validate(); err == nil {
		t.Error("200 regs with 7 threads should be rejected")
	}
}

// TestIntegerFieldsBoundedOrHarmless sets every integer field of Config,
// nested configs included, to a large negative value and to positive ones
// inside and far beyond any bound, in turn: Validate rejects the machine,
// or New builds (or refuses) it and it steps without panicking, inside a
// fixed memory budget. A config arrives from the network (smtd's inline
// grids), so a field that sizes an allocation or the event ring must be
// finite. The walk is reflective: a field added later is covered without
// editing this test.
func TestIntegerFieldsBoundedOrHarmless(t *testing.T) {
	const budget = 64 << 20 // bytes one machine may allocate
	progs := buildTraces(t, 2, 1)
	cfg := DefaultConfig(2)
	try := func(field reflect.Value, path string) {
		defer field.SetInt(field.Int())
		for _, x := range []int64{-1 << 30, 1 << 12, 1 << 16, 1 << 20, 1 << 30, 1 << 50} {
			if field.SetInt(x); cfg.Validate() != nil {
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s = %d: Validate accepts it and the machine panics: %v", path, x, r)
					}
				}()
				if p, err := New(cfg, progs); err == nil {
					p.Run(1<<40, 2_000)
				}
			}()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%s = %d: Validate accepts it and the machine allocates %d MiB, budget %d", path, x, got>>20, budget>>20)
			}
		}
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch {
		case v.CanInt():
			try(v, path)
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "Config")
}
