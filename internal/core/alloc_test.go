package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestSteadyStateCycleAllocs asserts the steady-state cycle loop performs
// zero heap allocations on every path a configuration can select: after a
// warmup long enough to grow every scratch buffer, pool and event-ring
// bucket to its working size, stepping the machine must not allocate at
// all. Any append site that loses its reused backing array, any closure,
// boxing or make sneaking into a stage, a policy's Less or a predictor
// engine shows up here as a non-zero count.
//
// The machines are Variants, built from the registries, so a policy or
// predictor registered later is measured without editing this test; the
// central design point's path covers the fetch-policy sort, the merged
// issue walk, optimistic issue, squash/release and the memory hierarchy.
// A name that builds an already measured machine (a Variant's Aliases) has
// a subtest of its own that holds that measurement, so each machine steps
// once.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping warmup-heavy allocation measurement")
	}
	progs := buildTraces(t, 8, 1)
	measure := func(t *testing.T, cfg Config) {
		p := MustNew(cfg, progs[:cfg.Threads])
		// Warm every reusable structure: scratch buffers and the dyn
		// pool grow to their high-water marks, the event ring's buckets
		// reach their plateau capacities, caches and TLBs fill. The run
		// is also held to the bounds any machine's counters obey.
		if err := runBounds(cfg, p.Run(600_000, 0)); err != nil {
			t.Error(err)
		}
		// One run is an exact count (AllocsPerRun divides in integers,
		// so a mean over many would round a slow leak down to 0). A
		// pool or a per-thread slice still meets a new high-water mark
		// every few windows this late, so the first clean window
		// passes; a leak allocates in every one.
		const cycles, windows = 10_000, 4
		var n float64
		for w := 0; w < windows; w++ {
			n = testing.AllocsPerRun(1, func() {
				for i := 0; i < cycles; i++ {
					p.Step()
				}
			})
			if n == 0 {
				return
			}
		}
		t.Fatalf("steady-state cycle loop allocates in %d windows running: %.0f allocs in the last %d cycles, want 0", windows, n, cycles)
	}
	for _, m := range Variants() {
		measured := false
		ok := t.Run(m.Name, func(t *testing.T) {
			measured = true
			measure(t, m.Config)
		})
		for _, alias := range m.Aliases {
			t.Run(alias, func(t *testing.T) {
				switch {
				case !measured: // -run left the machine's first name out
					measure(t, m.Config)
				case !ok:
					t.Fatalf("the same machine as %s, which allocates", m.Name)
				}
			})
		}
	}
}

// runBounds reports the first per-run bound s breaks: no machine commits
// more than it fetched on the correct path, fetches more than FetchTotal a
// cycle, issues more than IssueWidth a cycle (unless InfiniteFUs lifts the
// limit) or commits more than CommitWidth a cycle, every context commits,
// and every cycle is one fetch cycle or lost to exactly one cause (the
// paper's fetch-loss attribution means nothing otherwise).
func runBounds(cfg Config, s Stats) error {
	c := s.Cycles
	switch {
	case s.FetchCycles+s.FetchLostBackPressure+s.FetchLostNoThread+s.FetchLostIMiss+s.FetchLostBankConflict != c:
		return fmt.Errorf("fetch cycles %d + lost to back pressure %d, no thread %d, I-miss %d, bank conflict %d != %d cycles",
			s.FetchCycles, s.FetchLostBackPressure, s.FetchLostNoThread, s.FetchLostIMiss, s.FetchLostBankConflict, c)
	case s.Committed > s.Fetched-s.FetchedWrongPath:
		return fmt.Errorf("committed %d > correct-path fetched %d", s.Committed, s.Fetched-s.FetchedWrongPath)
	case s.Fetched > int64(cfg.FetchTotal)*c:
		return fmt.Errorf("fetched %d > FetchTotal %d x %d cycles", s.Fetched, cfg.FetchTotal, c)
	case !cfg.InfiniteFUs && s.Issued > int64(cfg.IssueWidth)*c:
		return fmt.Errorf("issued %d > IssueWidth %d x %d cycles", s.Issued, cfg.IssueWidth, c)
	case s.Committed > int64(cfg.CommitWidth)*c:
		return fmt.Errorf("committed %d > CommitWidth %d x %d cycles", s.Committed, cfg.CommitWidth, c)
	}
	for t, n := range s.CommittedByThread {
		if n <= 0 {
			return fmt.Errorf("thread %d committed %d of %d (per thread %v)", t, n, s.Committed, s.CommittedByThread)
		}
	}
	return nil
}

// TestMachineFootprint bounds what core.New allocates, traces aside, so
// a structure sized by a configuration's reach rather than by what it
// holds shows up as a regression. The event calendar is the case in
// point: its storage follows the events pending, so a machine whose
// memory latencies stretch the horizon toward maxEventHorizon pays one
// slice header a cycle, not a bucket of events.
func TestMachineFootprint(t *testing.T) {
	progs := buildTraces(t, 8, 1)
	footprint := func(cfg Config) (uint64, int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p := MustNew(cfg, progs[:cfg.Threads])
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, p.events.mask + 1
	}
	far := DefaultConfig(8)
	far.Mem.MemLatency += int(maxEventHorizon/4 - far.eventHorizon()/4)
	if h := far.eventHorizon(); h > maxEventHorizon || h <= maxEventHorizon/2 {
		t.Fatalf("far machine's horizon is %d, want just under %d", h, maxEventHorizon)
	}
	// Ceilings are the measured footprint plus about 25 %.
	cases := []struct {
		name    string
		cfg     Config
		ceiling uint64
	}{
		{"DefaultConfig(8)", DefaultConfig(8), 900 << 10},
		{"Superscalar", Superscalar(), 900 << 10},
		{"horizon near max", far, 1810 << 10},
	}
	got := make([]uint64, len(cases))
	buckets := make([]int64, len(cases))
	for i, c := range cases {
		got[i], buckets[i] = footprint(c.cfg)
		t.Logf("%s: %d KiB, %d calendar buckets", c.name, got[i]>>10, buckets[i])
		if got[i] > c.ceiling {
			t.Errorf("%s: core.New allocates %d KiB, want <= %d KiB", c.name, got[i]>>10, c.ceiling>>10)
		}
	}
	// The far machine differs from DefaultConfig(8) only in its calendar's
	// length: each extra cycle may cost its slice header, not its events.
	perCycle := float64(got[2]-got[0]) / float64(buckets[2]-buckets[0])
	if header := float64(unsafe.Sizeof([]event(nil))); perCycle > 2*header {
		t.Errorf("footprint grows %.0f bytes per horizon cycle, want about %.0f (one slice header)", perCycle, header)
	}
}
