package exp

import (
	"fmt"
	"io"

	"repro/smt"
)

// sec7Case is one experiment of Section 7.
type sec7Case struct {
	name    string
	threads []int
	mod     func(*smt.Config)
}

func sec7Cases() []sec7Case {
	return []sec7Case{
		{"infinite FUs", []int{8}, func(c *smt.Config) { c.InfiniteFUs = true }},
		{"64-entry searchable IQ", []int{8}, func(c *smt.Config) { c.IQSize = 64 }},
		{"16-wide fetch (2.16)", []int{8}, func(c *smt.Config) {
			c.FetchTotal = 16
			c.FetchPerThread = 8
		}},
		{"16-wide fetch + 64 IQ + 140 regs", []int{8}, func(c *smt.Config) {
			c.FetchTotal = 16
			c.FetchPerThread = 8
			c.IQSize = 64
			c.Rename.ExcessRegs = 140
		}},
		{"perfect branch prediction", []int{1, 4, 8}, func(c *smt.Config) { c.Branch.Predictor = smt.PredPerfect }},
		{"double BTB and PHT", []int{8}, func(c *smt.Config) {
			c.Branch.BTBEntries *= 2
			c.Branch.PHTEntries *= 2
		}},
		{"no wrong-path issue (4-cycle delay)", []int{1, 8}, func(c *smt.Config) { c.SpecMode = smt.SpecNoWrongPath }},
		{"no passing unresolved branches", []int{1, 8}, func(c *smt.Config) { c.SpecMode = smt.SpecNoPassBranch }},
		{"infinite memory bandwidth", []int{8}, func(c *smt.Config) { c.Mem.InfiniteBW = true }},
		{"excess registers 90", []int{8}, func(c *smt.Config) { c.Rename.ExcessRegs = 90 }},
		{"excess registers 80", []int{8}, func(c *smt.Config) { c.Rename.ExcessRegs = 80 }},
		{"excess registers 70", []int{8}, func(c *smt.Config) { c.Rename.ExcessRegs = 70 }},
		{"excess registers unlimited", []int{8}, func(c *smt.Config) { c.Rename.ExcessRegs = 100000 }},
	}
}

// sec7BaselineSeries names the ICOUNT.2.8 baseline series inside the sec7
// experiment grid; every other series is one bottleneck study.
const sec7BaselineSeries = "baseline ICOUNT.2.8"

// printSec7 is one row per bottleneck study and thread count: the modified
// machine's IPC next to the ICOUNT.2.8 baseline measured in the same grid,
// and the relative change (zero where there is no baseline to compare with).
func printSec7(w io.Writer, r *ExperimentResult) {
	baseline := map[int]float64{}
	for _, p := range r.Lookup(sec7BaselineSeries) {
		baseline[p.Threads] = p.IPC
	}
	fmt.Fprintf(w, "%-40s %8s %10s %10s %8s\n", "experiment", "threads", "baseline", "modified", "delta")
	for _, s := range r.Series {
		if s.Name == sec7BaselineSeries {
			continue
		}
		for _, p := range s.Points {
			base, delta := baseline[p.Threads], 0.0
			if base != 0 {
				delta = p.IPC/base - 1
			}
			fmt.Fprintf(w, "%-40s %8d %10.2f %10.2f %+7.1f%%\n", s.Name, p.Threads, base, p.IPC, delta*100)
		}
	}
}
