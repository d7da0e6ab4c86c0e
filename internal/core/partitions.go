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
