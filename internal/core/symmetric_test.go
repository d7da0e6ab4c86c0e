package core

import (
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/workload"
)

// symmetricCase is T copies of one benchmark on one fetch scheme.
type symmetricCase struct {
	bench   string
	threads int
	scheme  string // "RR.1.8" or "ICOUNT.2.8"
	seed    uint64
}

func (c symmetricCase) String() string {
	return fmt.Sprintf("%s×%d/%s/seed%d", c.bench, c.threads, c.scheme, c.seed)
}

// symmetricCases covers each width and both schemes in about two seconds:
// some that progress and every failure shape seen at 20 000 warmup and
// 40 000 measured instructions a thread.
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
	{"fpppp", 8, "ICOUNT.2.8", 1},
	{"xlisp", 8, "RR.1.8", 2},
}

// knownStarved lists the cases of symmetricCases that fail today, each
// with its reason. TestSymmetricCopiesProgress fails on a failure it does
// not list and on a listed case that passes, so a model fix shows here as
// entries to delete.
var knownStarved = map[string]string{
	"xlisp×2/RR.1.8/seed1":        stalls,
	"xlisp×2/ICOUNT.2.8/seed1":    stalls,
	"fpppp×8/ICOUNT.2.8/seed1":    stalls,
	"xlisp×8/RR.1.8/seed2":        stalls,
	"espresso×4/RR.1.8/seed1":     starves,
	"espresso×4/ICOUNT.2.8/seed1": starves,
	"alvinn×8/RR.1.8/seed1":       starves,
}

// The reasons knownStarved gives.
const (
	stalls  = "ROADMAP item 1: a cache fill installs its tag at request time, so contexts sharing a set evict each other's line before it arrives and nothing commits"
	starves = "ROADMAP item 1: one context falls to a sliver of the commits; not yet traced to request-time tag installs or to request-order bus and fill-port booking"
)

// stallCycles is smtsim's guard: a run that commits nothing for this many
// cycles is stalled.
const stallCycles = 100_000

// TestSymmetricCopiesProgress runs T copies of one benchmark, where no
// context is favoured by its program, and requires each run to commit its
// budget without a stallCycles gap and every context to commit at least
// 1/(4T) of the measured instructions.
func TestSymmetricCopiesProgress(t *testing.T) {
	const warmup, measure = 20_000, 40_000 // instructions a thread
	for _, c := range symmetricCases {
		got := runSymmetric(t, c, warmup, measure)
		reason, listed := knownStarved[c.String()]
		switch {
		case got != "" && !listed:
			t.Errorf("%s: %s", c, got)
		case got == "" && listed:
			t.Errorf("%s progresses, but knownStarved lists it (%s)", c, reason)
		case got != "":
			t.Logf("%s: %s (known: %s)", c, got, reason)
		}
	}
	for name := range knownStarved {
		found := false
		for _, c := range symmetricCases {
			found = found || c.String() == name
		}
		if !found {
			t.Errorf("knownStarved lists %s, which is not a case", name)
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
