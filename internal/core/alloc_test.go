package core

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/policy"
)

// TestSteadyStateCycleAllocs asserts the steady-state cycle loop performs
// zero heap allocations on every path a configuration can select: after a
// warmup long enough to grow every scratch buffer, pool and event-ring
// bucket to its working size, stepping the machine must not allocate at
// all. Any append site that loses its reused backing array, any closure,
// boxing or make sneaking into a stage, a policy's Less/First or a
// predictor engine shows up here as a non-zero count.
//
// The matrix is built from the registries, so a policy or predictor
// registered later is measured without editing this test: every fetch
// policy, issue policy and predictor on the paper's central design point
// (8 threads, ICOUNT.2.8, whose path covers the fetch-policy sort, the
// merged issue walk, optimistic issue, squash/release and the memory
// hierarchy), plus one machine per Config switch.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping warmup-heavy allocation measurement")
	}
	base := func() Config {
		cfg := DefaultConfig(8)
		cfg.FetchPolicy, cfg.FetchThreads = policy.ICount, 2
		return cfg
	}
	type machine struct {
		name string
		cfg  Config
	}
	var machines []machine
	add := func(name string, set func(*Config)) {
		cfg := base()
		set(&cfg)
		machines = append(machines, machine{name, cfg})
	}
	for _, f := range policy.FetchNames() {
		add("fetch="+f, func(c *Config) { c.FetchPolicy = policy.FetchAlg(f) })
	}
	for _, is := range policy.IssueNames() {
		add("issue="+is, func(c *Config) { c.IssuePolicy = policy.IssueAlg(is) })
	}
	for _, pr := range branch.Names() {
		add("predictor="+pr, func(c *Config) { c.Branch.Predictor = pr })
	}
	add("BigQ", func(c *Config) { c.BigQ = true })
	add("ITAG", func(c *Config) { c.ITAG = true })
	add("VarFetchRate", func(c *Config) { c.VarFetchRate = true })
	add("InfiniteFUs", func(c *Config) { c.InfiniteFUs = true })
	add("InfiniteBW", func(c *Config) { c.Mem.InfiniteBW = true })
	add("PerfectBranchPred", func(c *Config) { c.PerfectBranchPred = true })
	add("SpecNoPassBranch", func(c *Config) { c.SpecMode = SpecNoPassBranch })
	add("SpecNoWrongPath", func(c *Config) { c.SpecMode = SpecNoWrongPath })
	add("FetchTotal16", func(c *Config) { c.FetchTotal, c.FetchPerThread = 16, 16 })
	add("RR.1.8", func(c *Config) { c.FetchPolicy, c.FetchThreads = policy.RR, 1 })
	machines = append(machines, machine{"Superscalar", Superscalar()})

	progs := buildPrograms(t, 8, 1)
	for _, m := range machines {
		t.Run(m.name, func(t *testing.T) {
			p := MustNew(m.cfg, progs[:m.cfg.Threads])
			// Warm every reusable structure: scratch buffers and the dyn
			// pool grow to their high-water marks, the event ring's buckets
			// reach their plateau capacities, caches and TLBs fill.
			p.Run(600_000, 0)
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
		})
	}
}
