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
			profiles[bench].Name, s.IPC(), s.CondMispredictRate()*100, s.JumpMispredictRate()*100,
			ic.MissRate()*100, d.MissRate()*100, l2.MissRate()*100, l3.MissRate()*100,
			s.WrongPathFetchedFrac()*100, s.WrongPathIssuedFrac()*100, s.OptimisticSquashFrac()*100,
			s.IntIQFullFrac()*100, s.FPIQFullFrac()*100, s.OutOfRegFrac()*100, s.AvgQueuePopulation())
	}
}
