package core

import (
	"testing"

	"repro/internal/iq"
	"repro/internal/policy"
	"repro/internal/rename"
	"repro/internal/workload"
)

// checkInvariants validates cross-cutting machine state:
//   - the per-thread ICOUNT/BRCOUNT feedback counters equal the actual
//     occupancy of the front-end latches and queues;
//   - both rename free lists are structurally consistent;
//   - no queued instruction waits on a register that can never become
//     ready (NotReady with no live producer);
//   - queue occupancies respect capacity.
func checkInvariants(t *testing.T, p *Processor) {
	t.Helper()

	icount := make([]int, p.cfg.Threads)
	brcount := make([]int, p.cfg.Threads)
	countLatch := func(l []*dyn) {
		for _, d := range l {
			icount[d.thread]++
			if d.isControl() {
				brcount[d.thread]++
			}
		}
	}
	countLatch(p.decodeLatch)
	countLatch(p.renameLatch)
	for _, q := range []*iq.Queue[*dyn]{p.intQ, p.fpQ} {
		if q.Len() > q.Cap() {
			t.Fatalf("queue over capacity: %d > %d", q.Len(), q.Cap())
		}
		for _, d := range q.All() {
			if !d.inIQ {
				t.Fatalf("queue holds released entry (thread %d seq %d)", d.thread, d.seq)
			}
			icount[d.thread]++
			if d.isControl() {
				brcount[d.thread]++
			}
		}
	}
	for i, th := range p.threads {
		if th.icount != icount[i] {
			t.Fatalf("thread %d ICOUNT=%d but occupancy=%d", i, th.icount, icount[i])
		}
		if th.brcount != brcount[i] {
			t.Fatalf("thread %d BRCOUNT=%d but occupancy=%d", i, th.brcount, brcount[i])
		}
		if th.misscount < 0 {
			t.Fatalf("thread %d MISSCOUNT negative", i)
		}
	}

	if err := p.ren.Int.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := p.ren.FP.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// Deadlock-freedom: a queued instruction whose source is NotReady must
	// have a live producer that will eventually set it.
	for _, th := range p.threads {
		for _, d := range th.liveROB() {
			if d.state != stQueued {
				continue
			}
			for i := 0; i < 2; i++ {
				reg, phys := d.si.Src1, d.src1Phys
				if i == 1 {
					reg, phys = d.si.Src2, d.src2Phys
				}
				f := p.srcFile(reg)
				if f == nil || phys == rename.None {
					continue
				}
				if f.ReadyAt(phys) == rename.NotReady && p.producerFor(f, phys) == nil {
					t.Fatalf("thread %d seq %d waits on dead register %d", d.thread, d.seq, phys)
				}
			}
		}
	}
}

// TestInvariantsUnderConfigs runs several machine shapes with periodic
// invariant checks — squashes, optimistic pull-backs, BIGQ, ITAG, and all
// fetch policies are exercised.
func TestInvariantsUnderConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("invariant sweep")
	}
	type variant struct {
		name string
		mod  func(*Config)
	}
	for _, v := range []variant{
		{"base-rr", func(c *Config) {}},
		{"icount28", func(c *Config) { c.FetchPolicy = policy.ICount; c.FetchThreads = 2 }},
		{"bigq-itag", func(c *Config) {
			c.FetchPolicy = policy.ICount
			c.BigQ = true
			c.ITAG = true
		}},
		{"brcount-optlast", func(c *Config) {
			c.FetchPolicy = policy.BRCount
			c.IssuePolicy = policy.OptLast
		}},
		{"iqposn-speclast", func(c *Config) {
			c.FetchPolicy = policy.IQPosn
			c.IssuePolicy = policy.SpecLast
			c.FetchThreads = 2
		}},
		{"tight-regs", func(c *Config) { c.Rename.ExcessRegs = 60 }},
		{"no-pass-branch", func(c *Config) { c.SpecMode = SpecNoPassBranch }},
		{"no-wrong-path", func(c *Config) { c.SpecMode = SpecNoWrongPath }},
		{"fetch42", func(c *Config) { c.FetchThreads = 4; c.FetchPerThread = 2 }},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			v.mod(&cfg)
			p := MustNew(cfg, buildTraces(t, 4, 99))
			for step := 0; step < 40; step++ {
				for i := 0; i < 1500; i++ {
					p.Step()
				}
				checkInvariants(t, p)
			}
			if p.Stats().Committed == 0 {
				t.Fatal("machine committed nothing")
			}
		})
	}
}

// TestOracleSyncUnderSquash runs the branchiest workload (xlisp on all
// contexts would repeat programs; use the integer-heavy tail) on the
// smallest queues to maximize squash pressure, verifying the commit stream
// still matches the oracle exactly.
func TestOracleSyncUnderSquash(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	profiles := workload.Profiles()
	progs := make([]*workload.Program, 4)
	oracle := make([]*workload.Walker, 4)
	for i := 0; i < 4; i++ {
		prof := profiles[(5+i)%8] // espresso, xlisp, tex, alvinn
		progs[i] = workload.MustNew(prof, 31, i)
		oracle[i] = workload.NewWalker(workload.MustNew(prof, 31, i))
	}
	cfg := DefaultConfig(4)
	cfg.IQSize = 16 // small queues: maximum clog and squash interplay
	cfg.Rename.ExcessRegs = 48
	p := MustNew(cfg, live(progs...))
	mismatches := 0
	p.CommitHook = func(thread int, pc int64) {
		if want := oracle[thread].Next(); want.PC != pc && mismatches == 0 {
			mismatches++
			t.Errorf("thread %d committed %#x, oracle expects %#x", thread, pc, want.PC)
		}
	}
	p.Run(120_000, 4_000_000)
	if p.Stats().Mispredicts == 0 {
		t.Fatal("stress run produced no mispredict squashes")
	}
	if p.Stats().OptimisticSquash == 0 {
		t.Fatal("stress run produced no optimistic-issue squashes")
	}
}
