package fingerprint_test

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fingerprint"
	"repro/smt"
)

// referenceWalk is the canonical encoding computed the way it was before
// types carried a resolved plan: every struct re-collects its exported
// field names, sorts them and resolves each by name, on every visit. It
// shares no code with the package, so a plan that drops, reorders or
// mis-indexes a field disagrees with it.
func referenceWalk(v reflect.Value, b *strings.Builder) {
	if !v.IsValid() {
		b.WriteString("nil")
		return
	}
	if (v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface) && v.IsNil() {
		b.WriteString("nil")
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Pointer, reflect.Interface:
		referenceWalk(v.Elem(), b)
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			referenceWalk(v.Index(i), b)
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			var kb strings.Builder
			referenceWalk(k, &kb)
			keys = append(keys, kb.String())
			byKey[kb.String()] = v.MapIndex(k)
		}
		sort.Strings(keys)
		b.WriteString("map{")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(k)
			b.WriteByte(':')
			referenceWalk(byKey[k], b)
		}
		b.WriteByte('}')
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).IsExported() {
				names = append(names, t.Field(i).Name)
			}
		}
		sort.Strings(names)
		b.WriteByte('{')
		for i, name := range names {
			f, _ := t.FieldByName(name)
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(name)
			b.WriteByte(':')
			referenceWalk(v.FieldByIndex(f.Index), b)
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "<%s>", v.Kind())
	}
}

type mixed struct {
	hidden  int // unexported: never encoded
	Ptr     *orderedA
	NilPtr  *orderedA
	Any     any
	NilAny  any
	Nested  []holder
	Table   map[string]orderedB
	Levels  [2]uint8
	Ratio   float64
	Channel chan int
}

// planCases is every value the plan is checked on: this package's test
// types in each position a walk can meet them, and the machines whose
// fingerprints key the caches — the baseline at every thread count, the
// superscalar, and configs with non-default switches and names.
func planCases() map[string]any {
	a := orderedA{Threads: 8, Name: "icount"}
	a.Deep.X, a.Deep.Y = 3, 4
	b := orderedB{Threads: 2, Name: "rr"}
	b.Deep.X, b.Deep.Y = 5, 6
	cases := map[string]any{
		"orderedA": a,
		"orderedB": b,
		"holder":   holder{Policy: "ICOUNT", Width: 8},
		"pointer":  &a,
		"nil":      nil,
		"slice":    []orderedB{b, {}},
		"map":      map[string]int{"c": 3, "a": 1, "b": 2},
		"mixed": mixed{
			hidden: 1, Ptr: &a, Any: holder{Policy: "RR", Width: 1},
			Nested: []holder{{Policy: "A", Width: 1}, {Policy: "B", Width: 2}},
			Table:  map[string]orderedB{"z": b, "y": {}},
			Levels: [2]uint8{1, 2}, Ratio: 0.1,
		},
		"superscalar": smt.Superscalar(),
	}
	for threads := 1; threads <= 8; threads++ {
		cases[fmt.Sprintf("default%d", threads)] = smt.DefaultConfig(threads)
	}
	vfr := smt.DefaultConfig(4)
	vfr.VarFetchRate = true
	vfr.FetchPolicy = smt.FetchICount
	cases["vfr"] = vfr
	pred := smt.DefaultConfig(2)
	pred.Branch.Predictor = "not-the-default"
	cases["predictor"] = pred
	return cases
}

// TestPlanMatchesWalk: the planned encoding is byte-identical to the
// plan-free reference walk, so resolving a type's fields once changed no
// fingerprint — on a first visit (plan just built) and on a repeat (plan
// loaded).
func TestPlanMatchesWalk(t *testing.T) {
	for name, v := range planCases() {
		var want strings.Builder
		referenceWalk(reflect.ValueOf(v), &want)
		for _, visit := range []string{"first", "repeat"} {
			if got := fingerprint.Canonical(v); got != want.String() {
				t.Errorf("%s (%s visit):\nplan: %s\nwalk: %s", name, visit, got, want.String())
			}
		}
	}
}

// TestPlanConcurrentFirstUse: plans resolve lazily under concurrent first
// use (every sweep goroutine fingerprints), so types nobody has
// fingerprinted yet must come out right from many goroutines at once. Run
// under -race.
func TestPlanConcurrentFirstUse(t *testing.T) {
	type fresh struct {
		B    int
		A    string
		Deep struct{ Y, X int }
	}
	v := fresh{B: 1, A: "a"}
	v.Deep.X, v.Deep.Y = 2, 3
	const want = `{A:"a";B:1;Deep:{X:2;Y:3}}`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := fingerprint.Canonical(v); got != want {
				t.Errorf("concurrent first use: %s, want %s", got, want)
			}
			if fingerprint.Of(v) != fingerprint.Of(v) {
				t.Error("not deterministic under concurrency")
			}
		}()
	}
	wg.Wait()
}
