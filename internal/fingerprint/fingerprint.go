// Package fingerprint computes canonical content addresses for plain-data
// configuration values. It is a leaf package — the simulator core uses it
// to give Config a stable identity, and the caching layer uses those
// identities as store keys — so neither layer depends on the other.
//
// Two values with the same field names and the same field values hash
// identically no matter how their structs declare or order those fields,
// so a config that round-trips through JSON, or is rebuilt by a different
// caller, still produces the same address.
package fingerprint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"
)

// Of returns a stable hex digest of the canonical encoding of vs. It is
// deterministic across processes (no map iteration order, no pointer
// values) and across struct-field reordering (fields are encoded sorted
// by name).
func Of(vs ...any) string {
	buf := scratch.Get().(*[]byte)
	b := (*buf)[:0]
	for i, v := range vs {
		if i > 0 {
			b = append(b, '|')
		}
		b = appendCanonical(b, reflect.ValueOf(v), nil)
	}
	sum := sha256.Sum256(b)
	*buf = b
	scratch.Put(buf)
	return hex.EncodeToString(sum[:16])
}

// Canonical returns the canonical encoding itself; tests and debugging
// tools use it to see exactly what a fingerprint covers.
func Canonical(v any) string {
	return string(appendCanonical(nil, reflect.ValueOf(v), nil))
}

// Canonicaler lets a type override its canonical rendering. The override
// exists for encoding stability: a type whose Go representation changes
// (e.g. the policy enums becoming registered names) implements it to keep
// emitting its historical encoding, so previously computed fingerprints —
// and every cache key derived from them — remain valid.
type Canonicaler interface {
	CanonicalFingerprint() string
}

var canonicalerType = reflect.TypeOf((*Canonicaler)(nil)).Elem()

// plan is what the canonical walk needs to know about a type, resolved
// once per reflect.Type: whether values render through Canonicaler, and —
// for structs — the exported fields in the order they encode. A type's
// field set is fixed at compile time, so it is collected and sorted here
// once rather than on every fingerprint of every value of the type.
type plan struct {
	canon  bool
	fields []planField // sorted by name
}

type planField struct {
	name  string
	index int   // Type.Field index
	plan  *plan // the field type's plan
}

var plans sync.Map // reflect.Type -> *plan

func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	p := &plan{canon: t.Implements(canonicalerType)}
	if t.Kind() == reflect.Struct {
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				// A struct cannot contain itself by value, so this recursion
				// ends; a pointer's or slice's plan does not resolve its
				// element type.
				p.fields = append(p.fields, planField{name: f.Name, index: i, plan: planOf(f.Type)})
			}
		}
		//smt:sorted field names are unique within a struct, so the order is total
		sort.Slice(p.fields, func(i, j int) bool { return p.fields[i].name < p.fields[j].name })
	}
	// Racing resolvers build equal plans; whichever lands first is kept.
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*plan)
}

// Struct renders a struct value in the standard canonical form —
// {name:value;...}, exported fields sorted by name — omitting any field
// named in omitZero that holds its zero value. It exists for Canonicaler
// implementations on growing config structs: rendering a new field only
// when it is set keeps every fingerprint computed before the field existed
// valid (the default encodes exactly as it always did), while non-default
// values still content-address. Fields render through the canonical walk,
// so nested Canonicalers apply; the receiver's own Canonicaler is not
// re-invoked (no recursion).
func Struct(v any, omitZero ...string) string {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Struct {
		panic(fmt.Sprintf("fingerprint: Struct requires a struct value, got %s", rv.Kind()))
	}
	buf := scratch.Get().(*[]byte)
	b := appendStruct((*buf)[:0], rv, planOf(rv.Type()), omitZero)
	out := string(b)
	*buf = b
	scratch.Put(buf)
	return out
}

// scratch recycles encoding buffers: a rendering is copied out (hashed, or
// converted to a string) before its buffer goes back, and a nested
// Canonicaler's Struct call draws its own.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// appendStruct writes {name:value;...} for the plan's fields, skipping
// any named in omitZero that holds its zero value.
func appendStruct(b []byte, v reflect.Value, p *plan, omitZero []string) []byte {
	b = append(b, '{')
	first := true
	for _, f := range p.fields {
		fv := v.Field(f.index)
		if omitted(f.name, fv, omitZero) {
			continue
		}
		if !first {
			b = append(b, ';')
		}
		first = false
		b = append(b, f.name...)
		b = append(b, ':')
		b = appendCanonical(b, fv, f.plan)
	}
	return append(b, '}')
}

// omitted reports whether a field named in omitZero holds its zero value.
func omitted(name string, fv reflect.Value, omitZero []string) bool {
	for _, n := range omitZero {
		if n == name {
			return fv.IsZero()
		}
	}
	return false
}

// appendCanonical appends a deterministic, name-keyed rendering of v.
// Structs encode as {name:value;...} with names sorted, so declaration
// order never matters; maps sort their keys; slices and arrays keep
// element order (it is semantically significant). Unexported fields are
// skipped — a content address must only cover what callers can set.
// Types implementing Canonicaler render through it instead. p is the plan
// of v's type when the caller already holds it, else nil.
func appendCanonical(b []byte, v reflect.Value, p *plan) []byte {
	if !v.IsValid() {
		return append(b, "nil"...)
	}
	if (v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface) && v.IsNil() {
		return append(b, "nil"...)
	}
	if p == nil {
		p = planOf(v.Type())
	}
	if p.canon && v.CanInterface() {
		return append(b, v.Interface().(Canonicaler).CanonicalFingerprint()...)
	}
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Pointer, reflect.Interface:
		// A value whose dynamic type is a Canonicaler is caught one level
		// down, by that type's own plan.
		return appendCanonical(b, v.Elem(), nil)
	case reflect.Slice, reflect.Array:
		b = append(b, '[')
		ep := planOf(v.Type().Elem())
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCanonical(b, v.Index(i), ep)
		}
		return append(b, ']')
	case reflect.Map:
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for it := v.MapRange(); it.Next(); {
			k := string(appendCanonical(nil, it.Key(), nil))
			keys = append(keys, k)
			byKey[k] = it.Value()
		}
		sort.Strings(keys)
		b = append(b, "map{"...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, k...)
			b = append(b, ':')
			b = appendCanonical(b, byKey[k], nil)
		}
		return append(b, '}')
	case reflect.Struct:
		return appendStruct(b, v, p, nil)
	default:
		// Chan, Func, UnsafePointer: no meaningful content address. Render
		// the kind so the fingerprint is still deterministic, but configs
		// should never contain these.
		return fmt.Appendf(b, "<%s>", v.Kind())
	}
}
