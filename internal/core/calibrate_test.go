package core

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// TestCalibrationReport prints Table 3-style metrics for single-benchmark
// runs; it is a diagnostic aid (always passes) used while tuning the
// synthetic workload against the paper's reported statistics.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	profiles := workload.Profiles()
	for _, bench := range []int{0, 4, 5, 6} { // alvinn, tomcatv, espresso, xlisp
		cfg := DefaultConfig(1)
		prog, err := workload.New(profiles[bench], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := MustNew(cfg, live(prog))
		p.Run(30000, 1000000) // warmup
		p.ResetStats()
		s := p.Run(150000, 2000000)
		d := p.Mem().CacheStats(mem.L1D)
		ic := p.Mem().CacheStats(mem.L1I)
		l2 := p.Mem().CacheStats(mem.L2)
		l3 := p.Mem().CacheStats(mem.L3)
		fmt.Printf("%-9s IPC=%.2f brMis=%.1f%% jmpMis=%.1f%% I$=%.1f%% D$=%.1f%% L2=%.1f%% L3=%.1f%% wpF=%.1f%% wpI=%.1f%% opt=%.1f%% IQfull=%.0f/%.0f%% oor=%.0f%% qpop=%.0f\n",
			profiles[bench].Name, frac(s.Committed, s.Cycles), frac(s.CondMispredicts, s.CondBranches)*100, frac(s.JumpMispredicts, s.Jumps)*100,
			frac(ic.Misses, ic.Accesses)*100, frac(d.Misses, d.Accesses)*100, frac(l2.Misses, l2.Accesses)*100, frac(l3.Misses, l3.Accesses)*100,
			frac(s.FetchedWrongPath, s.Fetched)*100, frac(s.IssuedWrongPath, s.Issued)*100, frac(s.OptimisticSquash, s.Issued)*100,
			frac(s.IntIQFullCycles, s.Cycles)*100, frac(s.FPIQFullCycles, s.Cycles)*100, frac(s.OutOfRegCycles, s.Cycles)*100, frac(s.QueuePopSamples, s.Cycles))
	}
}
