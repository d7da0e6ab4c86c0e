package core

import (
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// symmetricCase is T copies of one benchmark profile on one fetch scheme.
// workload.New folds each context's asid into the program seed, so the
// copies are T different programs of the profile, not one program T times.
type symmetricCase struct {
	bench   string
	threads int
	scheme  string // "RR.1.8" or "ICOUNT.2.8"
	seed    uint64
}

func (c symmetricCase) String() string {
	return fmt.Sprintf("%s×%d/%s/seed%d", c.bench, c.threads, c.scheme, c.seed)
}

// symmetricCases covers each width and both schemes in a few seconds. Most
// cases stalled or starved a context while a cache fill installed its tag
// at request time, so that contexts sharing a set evicted each other's
// line before it arrived; the 8-thread ones cover each of the six profiles
// whose 8 copies failed then. The whole sweep of profiles, widths, schemes
// and seeds is TestSymmetricSweep, under the sweep build tag.
var symmetricCases = []symmetricCase{
	{"xlisp", 2, "RR.1.8", 1},
	{"xlisp", 2, "ICOUNT.2.8", 1},
	{"tomcatv", 2, "RR.1.8", 1},
	{"tomcatv", 2, "ICOUNT.2.8", 1},
	{"ora", 4, "RR.1.8", 1},
	{"ora", 4, "ICOUNT.2.8", 1},
	{"espresso", 4, "RR.1.8", 1},
	{"espresso", 4, "ICOUNT.2.8", 1},
	{"doduc", 8, "ICOUNT.2.8", 1},
	{"alvinn", 8, "RR.1.8", 1},
	{"alvinn", 8, "ICOUNT.2.8", 3},
	{"fpppp", 8, "RR.1.8", 1},
	{"fpppp", 8, "ICOUNT.2.8", 1},
	{"tomcatv", 8, "ICOUNT.2.8", 2},
	{"espresso", 8, "RR.1.8", 1},
	{"xlisp", 8, "RR.1.8", 2},
	{"xlisp", 8, "ICOUNT.2.8", 3},
	{"tex", 8, "RR.1.8", 3},
}

// stallCycles is smtsim's guard: a run that commits nothing for this many
// cycles is stalled.
const stallCycles = 100_000

// symmetricWarmup and symmetricMeasure are each case's budgets, in
// instructions a thread.
const symmetricWarmup, symmetricMeasure = 20_000, 40_000

// TestSymmetricCopiesProgress runs T copies of one benchmark profile and
// requires each run to commit its budget without a stallCycles gap and
// every context to commit at least 1/(4T) of the measured instructions.
// The copies are T programs drawn from one profile, so a context's share
// depends on the program its asid drew as well as on the fetch policy:
// across the 144 runs of TestSymmetricSweep the worst |share·T − 1| is
// 0.90 (espresso×4, RR.1.8, seed 1), which is why the bound is a floor
// and not a band around 1/T.
func TestSymmetricCopiesProgress(t *testing.T) {
	for _, c := range symmetricCases {
		if got := runSymmetric(t, c, symmetricWarmup, symmetricMeasure); got != "" {
			t.Errorf("%s: %s", c, got)
		}
	}
}

// runSymmetric runs one case and describes how it failed, or returns "".
func runSymmetric(t *testing.T, c symmetricCase, warmup, measure int64) string {
	t.Helper()
	prof, err := workload.ProfileByName(c.bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(c.threads)
	if c.scheme == "ICOUNT.2.8" {
		cfg.FetchPolicy, cfg.FetchThreads = policy.ICount, 2
	}
	traces := make([]*workload.Trace, c.threads)
	for i := range traces {
		prog, err := workload.New(prof, c.seed, i)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = workload.BuildTrace(prog, 0)
	}
	p := MustNew(cfg, traces)
	// run commits n more instructions, or reports the cycle it gave up.
	run := func(n int64) (stalledAt int64) {
		start, last, lastCycle := p.stats.Committed, p.stats.Committed, p.cycle
		for p.stats.Committed-start < n {
			p.Step()
			if p.stats.Committed != last {
				last, lastCycle = p.stats.Committed, p.cycle
			} else if p.cycle-lastCycle >= stallCycles {
				return p.cycle
			}
		}
		return 0
	}
	if at := run(warmup * int64(c.threads)); at != 0 {
		return fmt.Sprintf("stalled in warmup at cycle %d, per thread %v", at, p.stats.CommittedByThread)
	}
	p.ResetStats()
	if at := run(measure * int64(c.threads)); at != 0 {
		return fmt.Sprintf("stalled in measurement at cycle %d, per thread %v", at, p.stats.CommittedByThread)
	}
	for i, n := range p.stats.CommittedByThread {
		if n*4*int64(c.threads) < p.stats.Committed {
			return fmt.Sprintf("context %d committed %d of %d, under 1/(4T); per thread %v", i, n, p.stats.Committed, p.stats.CommittedByThread)
		}
	}
	return ""
}
