package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// traceCache memoises buildTraces by (threads, seed). A trace is immutable
// and shared read-only by every machine built over it, so a test that
// builds the same machine hundreds of times decodes its programs once.
var traceCache struct {
	sync.Mutex
	m map[traceKey][]*workload.Trace
}

type traceKey struct {
	n    int
	seed uint64
}

// buildTraces creates the first n benchmark programs, one per context, as
// zero-record traces: a machine built from them walks its programs live.
// The slice is the caller's own; the traces in it are shared.
func buildTraces(t testing.TB, n int, seed uint64) []*workload.Trace {
	t.Helper()
	traceCache.Lock()
	defer traceCache.Unlock()
	key := traceKey{n, seed}
	if traces, ok := traceCache.m[key]; ok {
		return slices.Clone(traces)
	}
	profiles := workload.Profiles()
	progs := make([]*workload.Program, n)
	for i := 0; i < n; i++ {
		prog, err := workload.New(profiles[i%len(profiles)], seed, i)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = prog
	}
	traces := live(progs...)
	if traceCache.m == nil {
		traceCache.m = make(map[traceKey][]*workload.Trace)
	}
	traceCache.m[key] = traces
	return slices.Clone(traces)
}

// live wraps each program in a zero-record trace.
func live(progs ...*workload.Program) []*workload.Trace {
	traces := make([]*workload.Trace, len(progs))
	for i, prog := range progs {
		traces[i] = workload.BuildTrace(prog, 0)
	}
	return traces
}

// stallWindow is smtsim's progress budget: a machine that commits nothing
// for this many cycles has wedged.
const stallWindow = 100_000

// Run advances until instructions commits have occurred (across all
// threads) or maxCycles elapse (0 means no cycle bound). It returns the
// statistics snapshot at stop. A machine that goes stallWindow cycles
// without a commit panics, naming the cycle and the per-thread commits,
// so a wedged model fails its test at once instead of at go test's
// timeout.
func (p *Processor) Run(instructions int64, maxCycles int64) Stats {
	start := p.stats.Committed
	committed, since := start, p.cycle
	for p.stats.Committed-start < instructions {
		if maxCycles > 0 && p.stats.Cycles >= maxCycles {
			break
		}
		p.Step()
		if p.stats.Committed != committed {
			committed, since = p.stats.Committed, p.cycle
		} else if p.cycle-since >= stallWindow {
			panic(fmt.Sprintf("core: wedged: nothing committed in the %d cycles before cycle %d (per thread %v)",
				stallWindow, p.cycle, p.stats.CommittedByThread))
		}
	}
	return p.Stats()
}

// frac is n/d, or 0 when d is 0: the rates smt.Results reports, read off
// raw counters.
func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func TestSingleThreadRunsAndCommits(t *testing.T) {
	cfg := DefaultConfig(1)
	p := MustNew(cfg, buildTraces(t, 1, 1))
	s := p.Run(20000, 200000)
	if s.Committed < 20000 {
		t.Fatalf("committed %d of 20000 in %d cycles", s.Committed, s.Cycles)
	}
	if ipc := frac(s.Committed, s.Cycles); ipc < 0.3 || ipc > 8 {
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
		return frac(s.Committed, s.Cycles)
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
	if r := frac(s.CondMispredicts, s.CondBranches); r < 0 || r > 0.5 {
		t.Errorf("implausible mispredict rate %.3f", r)
	}
	if f := frac(s.FetchedWrongPath, s.Fetched); f < 0 || f > 0.6 {
		t.Errorf("implausible wrong-path fetch fraction %.3f", f)
	}
	if pop := frac(s.QueuePopSamples, s.Cycles); pop < 0 || pop > 64 {
		t.Errorf("implausible queue population %.1f", pop)
	}
	sum := int64(0)
	for _, c := range s.CommittedByThread {
		sum += c
	}
	if sum != s.Committed {
		t.Errorf("per-thread commits %d != total %d", sum, s.Committed)
	}
}
