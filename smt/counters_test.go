package smt

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// nudge adds delta to a counter — a number, or every element of a slice of
// signed integers, the kinds Stats.Sub subtracts — and reports whether the
// field was one of those.
func nudge(f reflect.Value, delta int64) bool {
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + delta)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + uint64(delta))
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + float64(delta))
	case reflect.Slice:
		fresh := reflect.MakeSlice(f.Type(), 2, 2) // a copy: never write through a shared backing array
		reflect.Copy(fresh, f)
		for i := 0; i < fresh.Len(); i++ {
			if !nudge(fresh.Index(i), delta+int64(i)) {
				return false
			}
		}
		f.Set(fresh)
	default:
		return false
	}
	return true
}

// TestCounterContract is the counter-accounting contract between core.Stats
// and Results: every counter is a kind an interval delta can subtract, and
// every counter either moves Results or is listed in
// core.DiagnosticOnlyCounters — which holds no name that is not a counter
// and none that Results does reach. (That core.CounterPartitions names only
// counters is core's TestPartitionTableResolves.)
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
	for _, name := range core.DiagnosticOnlyCounters {
		if _, ok := fields.FieldByName(name); !ok {
			t.Errorf("DiagnosticOnlyCounters names %s, which is not a Stats field", name)
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
			t.Errorf("Stats counter %s does not reach Results and is not in DiagnosticOnlyCounters: map it or declare it", name)
		case reached && diagnostic[name]:
			t.Errorf("DiagnosticOnlyCounters names %s, but Results reaches it: remove the stale entry", name)
		}
	}
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
