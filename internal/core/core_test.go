package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// buildTraces creates the first n benchmark programs, one per context, as
// zero-record traces: a machine built from them walks its programs live.
func buildTraces(t testing.TB, n int, seed uint64) []*workload.Trace {
	t.Helper()
	profiles := workload.Profiles()
	progs := make([]*workload.Program, n)
	for i := 0; i < n; i++ {
		prog, err := workload.New(profiles[i%len(profiles)], seed, i)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
	}
	return live(progs...)
}

// live wraps each program in a zero-record trace.
func live(progs ...*workload.Program) []*workload.Trace {
	traces := make([]*workload.Trace, len(progs))
	for i, prog := range progs {
		traces[i] = workload.BuildTrace(prog, 0)
	}
	return traces
}

func TestSingleThreadRunsAndCommits(t *testing.T) {
	cfg := DefaultConfig(1)
	p := MustNew(cfg, buildTraces(t, 1, 1))
	s := p.Run(20000, 200000)
	if s.Committed < 20000 {
		t.Fatalf("committed %d of 20000 in %d cycles", s.Committed, s.Cycles)
	}
	if ipc := s.IPC(); ipc < 0.3 || ipc > 8 {
		t.Fatalf("implausible IPC %.2f", ipc)
	}
}

// TestCommitStreamMatchesOracle is the fundamental correctness check: the
// committed instruction stream of every thread must be exactly the
// architectural path, regardless of wrong-path fetch, optimistic issue, and
// squashes along the way.
func TestCommitStreamMatchesOracle(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		cfg := DefaultConfig(threads)
		progs := buildTraces(t, threads, 7)
		p := MustNew(cfg, progs)
		oracles := make([]*workload.Walker, threads)
		for i := range progs {
			// Fresh walkers over identical programs replay the same path.
			oracles[i] = workload.NewWalker(workload.MustNew(workload.Profiles()[i%8], 7, i))
		}
		bad := false
		p.CommitHook = func(thread int, pc int64) {
			want := oracles[thread].Next()
			if want.PC != pc && !bad {
				bad = true
				t.Errorf("threads=%d: thread %d committed %#x, oracle says %#x",
					threads, thread, pc, want.PC)
			}
		}
		p.Run(30000, 400000)
		if p.Stats().Committed == 0 {
			t.Fatalf("threads=%d: nothing committed", threads)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		cfg := DefaultConfig(4)
		p := MustNew(cfg, buildTraces(t, 4, 11))
		return p.Run(20000, 400000)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Committed != b.Committed ||
		a.Issued != b.Issued || a.Fetched != b.Fetched ||
		a.Mispredicts != b.Mispredicts {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMoreThreadsMoreThroughput(t *testing.T) {
	ipc := func(threads int) float64 {
		cfg := DefaultConfig(threads)
		p := MustNew(cfg, buildTraces(t, threads, 3))
		s := p.Run(int64(threads)*15000, 600000)
		return s.IPC()
	}
	one := ipc(1)
	four := ipc(4)
	if four <= one*1.2 {
		t.Fatalf("4-thread IPC %.2f not meaningfully above 1-thread %.2f", four, one)
	}
}

func TestSuperscalarBaselineRuns(t *testing.T) {
	cfg := Superscalar()
	p := MustNew(cfg, buildTraces(t, 1, 5))
	s := p.Run(20000, 200000)
	if s.Committed < 20000 {
		t.Fatalf("superscalar committed only %d", s.Committed)
	}
}

func TestICountPolicyRuns(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FetchPolicy = policy.ICount
	cfg.FetchThreads = 2
	p := MustNew(cfg, buildTraces(t, 4, 9))
	s := p.Run(40000, 600000)
	if s.Committed < 40000 {
		t.Fatalf("ICOUNT.2.8 committed only %d in %d cycles", s.Committed, s.Cycles)
	}
}

func TestStatsSanity(t *testing.T) {
	cfg := DefaultConfig(2)
	p := MustNew(cfg, buildTraces(t, 2, 13))
	s := p.Run(30000, 400000)
	if s.Fetched < s.Committed {
		t.Errorf("fetched %d < committed %d", s.Fetched, s.Committed)
	}
	if s.Issued < s.Committed {
		t.Errorf("issued %d < committed %d", s.Issued, s.Committed)
	}
	if s.CondBranches == 0 {
		t.Error("no conditional branches committed")
	}
	if r := s.CondMispredictRate(); r < 0 || r > 0.5 {
		t.Errorf("implausible mispredict rate %.3f", r)
	}
	if f := s.WrongPathFetchedFrac(); f < 0 || f > 0.6 {
		t.Errorf("implausible wrong-path fetch fraction %.3f", f)
	}
	if s.AvgQueuePopulation() < 0 || s.AvgQueuePopulation() > 64 {
		t.Errorf("implausible queue population %.1f", s.AvgQueuePopulation())
	}
	sum := int64(0)
	for _, c := range s.CommittedByThread {
		sum += c
	}
	if sum != s.Committed {
		t.Errorf("per-thread commits %d != total %d", sum, s.Committed)
	}
}
