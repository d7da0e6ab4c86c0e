package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/branch"
	"repro/internal/policy"
)

// TestAblationsMoveTheirWay is Section 7 as a referee: every switch that
// removes a limit moves ICOUNT.2.8's 8-thread IPC the way its name says.
// Each relation compares two machines on the same workload seed, so the
// seed spread cancels, and is judged on its paired relative differences
// over the seeds: the mean must not fall short by more than ε, twice its
// standard error. Infinite memory bandwidth, infinite FUs, a doubled BTB
// and PHT, and perfect prediction (against every registered predictor)
// are each no worse; doubling the memory latency is no better.
//
// A predictor registered later gets its relation with no edit here.
func TestAblationsMoveTheirWay(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const warmup, measure = 8_000, 12_000 // instructions a thread
	seeds := []uint64{1, 2, 3}
	base := DefaultConfig(8)
	base.FetchPolicy, base.FetchThreads = policy.ICount, 2
	with := func(set func(*Config)) Config { c := base; set(&c); return c }
	perfect := with(func(c *Config) { c.Branch.Predictor = branch.Perfect })

	// A relation holds when IPC(hi) >= IPC(lo) - ε.
	type relation struct {
		name   string
		hi, lo Config
	}
	rels := []relation{
		{"InfiniteBW >= base", with(func(c *Config) { c.Mem.InfiniteBW = true }), base},
		{"InfiniteFUs >= base", with(func(c *Config) { c.InfiniteFUs = true }), base},
		{"BTB and PHT x2 >= base", with(func(c *Config) { c.Branch.BTBEntries *= 2; c.Branch.PHTEntries *= 2 }), base},
		{"base >= MemLatency x2", base, with(func(c *Config) { c.Mem.MemLatency *= 2 })},
	}
	for _, name := range branch.Names() {
		if name != branch.Perfect {
			rels = append(rels, relation{"perfect >= predictor=" + name, perfect, with(func(c *Config) { c.Branch.Predictor = name })})
		}
	}

	// Each distinct machine runs once a seed, two at a time.
	ipc := map[string][]float64{}
	var jobs []Config
	for _, r := range rels {
		for _, cfg := range []Config{r.hi, r.lo} {
			if fp := cfg.Fingerprint(); ipc[fp] == nil {
				ipc[fp] = make([]float64, len(seeds))
				jobs = append(jobs, cfg)
			}
		}
	}
	var wg sync.WaitGroup
	work := make(chan func())
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				f()
			}
		}()
	}
	for i, seed := range seeds {
		traces := buildTraces(t, base.Threads, seed) // shared read-only
		for _, cfg := range jobs {
			out := &ipc[cfg.Fingerprint()][i]
			work <- func() {
				p := MustNew(cfg, traces)
				p.Run(warmup*int64(cfg.Threads), 0)
				p.ResetStats()
				s := p.Run(measure*int64(cfg.Threads), 0)
				*out = frac(s.Committed, s.Cycles)
			}
		}
	}
	close(work)
	wg.Wait()

	var table strings.Builder
	for _, r := range rels {
		hi, lo := ipc[r.hi.Fingerprint()], ipc[r.lo.Fingerprint()]
		d := make([]float64, len(seeds))
		for i := range seeds {
			d[i] = hi[i]/lo[i] - 1
		}
		mean, eps := pairedBound(d)
		fmt.Fprintf(&table, "%-34s %+6.2f%% (ε %.2f%%) per seed %v\n", r.name, 100*mean, 100*eps, d)
		if mean < -eps {
			t.Errorf("%s: mean paired difference %+.2f%%, below -ε = -%.2f%% (IPC %v vs %v)", r.name, 100*mean, 100*eps, hi, lo)
		}
	}
	t.Logf("relations over seeds %v:\n%s", seeds, table.String())
}

// pairedBound returns the mean of paired differences and ε, twice its
// standard error.
func pairedBound(d []float64) (mean, eps float64) {
	for _, v := range d {
		mean += v
	}
	mean /= float64(len(d))
	var ss float64
	for _, v := range d {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(len(d)-1))
	return mean, 2 * sd / math.Sqrt(float64(len(d)))
}
