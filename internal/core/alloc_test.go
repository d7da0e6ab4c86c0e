package core

import "testing"

// TestSteadyStateCycleAllocs asserts the steady-state cycle loop performs
// zero heap allocations on every path a configuration can select: after a
// warmup long enough to grow every scratch buffer, pool and event-ring
// bucket to its working size, stepping the machine must not allocate at
// all. Any append site that loses its reused backing array, any closure,
// boxing or make sneaking into a stage, a policy's Less/First or a
// predictor engine shows up here as a non-zero count.
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
	progs := buildPrograms(t, 8, 1)
	measure := func(t *testing.T, cfg Config) {
		p := MustNew(cfg, progs[:cfg.Threads])
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
