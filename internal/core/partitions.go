package core

import (
	"fmt"
	"reflect"
)

// A CounterPartition declares an exact accounting identity over Stats
// counters: Whole == sum(Parts), cycle for cycle. The core tests check the
// declarations through PartitionViolations — every name must be a real
// Stats field, and every identity must hold on a busy machine — so an
// identity can neither drift when a counter is renamed nor silently stop
// holding.
type CounterPartition struct {
	Whole string
	Parts []string
}

// CounterPartitions lists the declared identities. The fetch-availability
// partition is the load-bearing one: the paper's fetch-loss attribution
// only means anything if every cycle lands in exactly one bucket.
var CounterPartitions = []CounterPartition{
	{
		Whole: "Cycles",
		Parts: []string{
			"FetchCycles",
			"FetchLostBackPressure",
			"FetchLostNoThread",
			"FetchLostIMiss",
			"FetchLostBankConflict",
		},
	},
}

// DiagnosticOnlyCounters lists the Stats counters that deliberately do not
// surface in the exported smt.Results set: they exist for debugging and
// invariant checks, and adding them to Results would change its frozen
// JSON schema (and with it every golden fingerprint). smt's
// TestCounterContract requires every counter to either move smt.Results or
// be declared here, so the list can hold neither stale nor missing names.
var DiagnosticOnlyCounters = []string{
	"ICacheMissStalls",     // subsumed by FetchLostIMiss in the availability partition
	"LoadRetries",          // bank-conflict retry churn; visible via OptimisticSquash rates
	"Misfetches",           // decode-corrected bubbles; folded into fetch availability
	"SquashedInstructions", // squash volume; Results reports the wrong-path fractions instead
	"Mispredicts",          // exec redirects; Results reports per-class mispredict rates
	"LowConfFetched",       // per-thread confidence diagnostics; schema stays frozen
	"MispredictsByThread",  // per-thread split of Mispredicts, same reasoning
	"VarFetchThrottled",    // VFR throttle accounting; off-by-default feature
}

// PartitionViolations evaluates every declared partition against the
// snapshot and returns one message per broken identity (nil when all
// hold). Unknown field names panic: the table is part of the source
// contract and TestPartitionTableResolves rejects typos before they can
// reach a run.
func (s Stats) PartitionViolations() []string {
	v := reflect.ValueOf(s)
	var out []string
	for _, p := range CounterPartitions {
		whole := v.FieldByName(p.Whole)
		if !whole.IsValid() {
			panic(fmt.Sprintf("core: CounterPartitions names unknown field %s", p.Whole))
		}
		var sum int64
		for _, part := range p.Parts {
			f := v.FieldByName(part)
			if !f.IsValid() {
				panic(fmt.Sprintf("core: CounterPartitions names unknown field %s", part))
			}
			sum += f.Int()
		}
		if whole.Int() != sum {
			out = append(out, fmt.Sprintf("%s = %d but parts sum to %d", p.Whole, whole.Int(), sum))
		}
	}
	return out
}
