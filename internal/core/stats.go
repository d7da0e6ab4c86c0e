package core

import (
	"fmt"
	"reflect"
)

// Stats is the core's raw event counters, cumulative from construction (or
// the last ResetStats). smt.Results derives every rate the paper's tables
// and figures report from them.
type Stats struct {
	Cycles int64

	// Committed (useful) instructions; throughput counts only these.
	Committed         int64
	CommittedByThread []int64

	// Fetch.
	Fetched          int64 // all instructions brought in, wrong path included
	FetchedWrongPath int64
	FetchCycles      int64 // cycles in which at least one instruction was fetched
	ICacheMissStalls int64 // fetch opportunities lost to I-cache misses

	// Fetch-loss accounting: cycles in which no instruction was fetched,
	// by cause (the paper's "fetch availability" discussion). Exactly one
	// of these (or FetchCycles) increments per cycle, so
	// FetchCycles + FetchLostBackPressure + FetchLostNoThread +
	// FetchLostIMiss + FetchLostBankConflict == Cycles.
	FetchLostBackPressure int64 // decode latch occupied (IQ / rename stall upstream)
	FetchLostNoThread     int64 // every thread stalled on a bubble or in-flight I-miss
	FetchLostIMiss        int64 // a selected thread missed in the I-cache, none fetched
	FetchLostBankConflict int64 // fetchable threads all lost to cache-fill bank conflicts

	// Issue.
	Issued           int64
	IssuedWrongPath  int64
	OptimisticSquash int64 // issued slots wasted by load-miss/bank-conflict squash
	LoadRetries      int64 // load executions retried on bank conflicts

	// Queues.
	IntIQFullCycles int64 // cycles the integer queue rejected an insert
	FPIQFullCycles  int64
	QueuePopSamples int64 // sum over cycles of combined queue population
	OutOfRegCycles  int64 // cycles rename stalled for lack of physical registers

	// Branching (committed, correct-path instructions only).
	CondBranches    int64
	CondMispredicts int64
	Jumps           int64 // indirect jumps and returns
	JumpMispredicts int64
	Misfetches      int64 // decode-corrected target misses (2-cycle bubble)

	// Per-thread squash accounting.
	SquashedInstructions int64
	Mispredicts          int64 // exec-redirect squashes (wrong paths entered)

	// Branch-confidence diagnostics (predictor registry / variable fetch
	// rate). Per-thread so fetch-policy studies can see which contexts the
	// predictor trusts; deliberately absent from smt.Results (frozen schema).
	LowConfFetched      []int64 // low-confidence conditional branches fetched
	MispredictsByThread []int64 // exec-redirect squashes per thread
	VarFetchThrottled   int64   // fetch slots withheld by the VarFetchRate throttle
}

// Sub returns the counter-wise difference s - base: the statistics of the
// interval between two snapshots of the same run. It walks the struct
// reflectively so new counters are covered automatically. A counter is an
// int64 or a []int64, the only kinds state.Counters checkpoints; any other
// kind panics, so a new counter of another kind cannot slip through as a
// cumulative value in interval deltas. A zero base returns a copy of s.
func (s Stats) Sub(base Stats) Stats {
	out := s
	vo := reflect.ValueOf(&out).Elem()
	vb := reflect.ValueOf(&base).Elem()
	for i := 0; i < vo.NumField(); i++ {
		switch f := vo.Field(i).Addr().Interface().(type) {
		case *int64:
			*f -= vb.Field(i).Int()
		case *[]int64:
			b := *vb.Field(i).Addr().Interface().(*[]int64)
			d := make([]int64, len(*f)) // fresh: out must not share s's backing array
			for j, v := range *f {
				if j < len(b) {
					v -= b[j]
				}
				d[j] = v
			}
			*f = d
		default:
			panic(fmt.Sprintf("core: Stats.Sub cannot subtract field %s (%T)", vo.Type().Field(i).Name, f))
		}
	}
	return out
}
