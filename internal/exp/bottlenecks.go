package exp

import "repro/smt"

// FetchAvailability is one row of the Table-3-style fetch-bandwidth
// bottleneck breakdown: the fraction of all cycles one fetch outcome
// accounts for. The five rows partition the run's cycles exactly (the
// core's fetch-accounting invariant), so a reader can see where every
// cycle of fetch bandwidth went.
type FetchAvailability struct {
	Cause string
	Frac  float64
}

// FetchAvailabilityRows extracts the per-cause fetch breakdown from one
// configuration's results, in fixed display order.
func FetchAvailabilityRows(r smt.Results) []FetchAvailability {
	return []FetchAvailability{
		{"fetch delivered instructions", r.FetchCyclesFrac},
		{"lost: IQ back-pressure", r.FetchLostBackPressure},
		{"lost: no fetchable thread", r.FetchLostNoThread},
		{"lost: I-cache miss", r.FetchLostIMiss},
		{"lost: cache-fill bank conflict", r.FetchLostBankConflict},
	}
}

// Sec7Result is one bottleneck experiment: the modified machine's IPC next
// to the ICOUNT.2.8 baseline at the same thread count.
type Sec7Result struct {
	Name     string
	Threads  int
	Baseline float64
	Modified float64
}

// Delta returns the relative change from the baseline.
func (r Sec7Result) Delta() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return r.Modified/r.Baseline - 1
}

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
		{"perfect branch prediction", []int{1, 4, 8}, func(c *smt.Config) { c.PerfectBranchPred = true }},
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

// Sec7Results extracts the bottleneck deltas from an engine result.
// Baselines are measured once per thread count as part of the same grid.
func Sec7Results(r *ExperimentResult) []Sec7Result {
	baseline := map[int]float64{}
	for _, p := range r.Lookup(sec7BaselineSeries) {
		baseline[p.Threads] = p.IPC
	}
	var out []Sec7Result
	for _, s := range r.Series {
		if s.Name == sec7BaselineSeries {
			continue
		}
		for _, p := range s.Points {
			out = append(out, Sec7Result{
				Name:     s.Name,
				Threads:  p.Threads,
				Baseline: baseline[p.Threads],
				Modified: p.IPC,
			})
		}
	}
	return out
}
