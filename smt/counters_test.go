package smt

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// diagnosticOnlyCounters lists the core.Stats counters that deliberately do
// not surface in Results: they exist for debugging and invariant checks,
// and adding them to Results would change its frozen JSON schema (and with
// it every golden fingerprint). TestCounterContract requires every counter
// to either move Results or be listed here, so the list can hold neither
// stale nor missing names.
var diagnosticOnlyCounters = []string{
	"ICacheMissStalls",     // subsumed by FetchLostIMiss in the availability partition
	"LoadRetries",          // bank-conflict retry churn; visible via OptimisticSquash rates
	"Misfetches",           // decode-corrected bubbles; folded into fetch availability
	"SquashedInstructions", // squash volume; Results reports the wrong-path fractions instead
	"Mispredicts",          // exec redirects; Results reports per-class mispredict rates
	"LowConfFetched",       // per-thread confidence diagnostics; schema stays frozen
	"MispredictsByThread",  // per-thread split of Mispredicts, same reasoning
	"VarFetchThrottled",    // VFR throttle accounting; off-by-default feature
}

// nudge adds delta to a counter — an int64, or every element of a []int64,
// the kinds Stats.Sub subtracts — and reports whether the field was one of
// those.
func nudge(f reflect.Value, delta int64) bool {
	switch v := f.Addr().Interface().(type) {
	case *int64:
		*v += delta
	case *[]int64:
		fresh := make([]int64, 2) // a copy: never write through a shared backing array
		copy(fresh, *v)
		for i := range fresh {
			fresh[i] += delta + int64(i)
		}
		*v = fresh
	default:
		return false
	}
	return true
}

// TestCounterContract is the counter-accounting contract between core.Stats
// and Results: every counter is a kind an interval delta can subtract, and
// every counter either moves Results or is listed in diagnosticOnlyCounters
// — which holds no name that is not a counter and none that Results does
// reach. (The fetch-cycle identity, Cycles = the five fetch outcomes, is
// a Go expression in core's runBounds, checked on every core.Variants()
// machine by TestSteadyStateCycleAllocs.)
func TestCounterContract(t *testing.T) {
	var filled core.Stats
	fields := reflect.TypeOf(filled)
	for i := 0; i < fields.NumField(); i++ {
		// Distinct and non-zero, so no rate divides by zero or cancels out.
		nudge(reflect.ValueOf(&filled).Elem().Field(i), int64(1000+37*i))
	}
	if d := filled.Sub(core.Stats{}); !reflect.DeepEqual(d, filled) { // panics on a kind it cannot subtract
		t.Errorf("Stats.Sub from zero is not the identity:\n%+v\nvs\n%+v", d, filled)
	}

	diagnostic := map[string]bool{}
	for _, name := range diagnosticOnlyCounters {
		if _, ok := fields.FieldByName(name); !ok {
			t.Errorf("diagnosticOnlyCounters names %s, which is not a Stats field", name)
		}
		diagnostic[name] = true
	}

	encoded := func(st core.Stats) string {
		b, err := json.Marshal(observation{st: st}.results())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := encoded(filled)
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		bumped := filled
		if !nudge(reflect.ValueOf(&bumped).Elem().Field(i), 1) {
			t.Errorf("Stats field %s has type %s, not a counter Stats.Sub can subtract", name, fields.Field(i).Type)
			continue
		}
		switch reached := encoded(bumped) != base; {
		case !reached && !diagnostic[name]:
			t.Errorf("Stats counter %s does not reach Results and is not in diagnosticOnlyCounters: map it or declare it", name)
		case reached && diagnostic[name]:
			t.Errorf("diagnosticOnlyCounters names %s, but Results reaches it: remove the stale entry", name)
		}
	}
}

// TestIdleIntervalRatesAreZero: an observation with no cycles, instructions
// or accesses — an idle interval — reports every rate as 0, never NaN or
// Inf. Every float in Results is a rate, so the test walks them all.
func TestIdleIntervalRatesAreZero(t *testing.T) {
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			if f := v.Float(); f != 0 { // NaN and Inf included
				t.Errorf("idle %s = %v, want 0", path, f)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				check(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				check(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		}
	}
	check("Results", reflect.ValueOf(observation{}.results()))
}

// TestWorkloadMixIsARing: any rotation is in range — a negative one counts
// back from the end — and equals the rotation it is congruent to.
func TestWorkloadMixIsARing(t *testing.T) {
	names := Benchmarks()
	n := len(names)
	for threads := 1; threads <= n; threads++ {
		for rotate := 0; rotate < 2*n; rotate++ {
			spec := WorkloadMix(threads, rotate, 3)
			for i, name := range spec.Names {
				if want := names[(rotate+i)%n]; name != want {
					t.Fatalf("WorkloadMix(%d, %d)[%d] = %s, want %s", threads, rotate, i, name, want)
				}
			}
			if len(spec.Names) != threads || spec.Seed != 3 {
				t.Fatalf("WorkloadMix(%d, %d) = %+v", threads, rotate, spec)
			}
			if back := WorkloadMix(threads, rotate-3*n, 3); !reflect.DeepEqual(back, spec) {
				t.Fatalf("WorkloadMix(%d, %d) = %v, want %v", threads, rotate-3*n, back.Names, spec.Names)
			}
		}
	}
	distinct := map[string]bool{}
	for _, name := range WorkloadMix(n, -1, 1).Names {
		distinct[name] = true
	}
	if len(distinct) != n {
		t.Fatalf("WorkloadMix(%d, -1) repeats a benchmark", n)
	}
}
