// Package state is the checkpoint wire format, and the only code that
// knows it. A Codec is one pass over a machine's mutable state, either
// writing it to a flat binary stream or reading it back: every component
// exposes a single walk function that names each mutable field once, next
// to the range it must satisfy, and the codec runs that walk in both
// directions. Checkpointing a new field is one line in its component's walk.
//
// The stream is a magic tag and a version followed by the walked values,
// every integer a zig-zag varint. Reads are defensive — the bytes may come
// from disk or the network: a walk fails on the first value out of its
// range, length or type; the first failure sticks and every later call is a
// no-op; and a length prefix can never allocate more elements than there
// are bytes left to decode them from.
package state

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

const magic = "SMTS"

// Unbounded is the Slice limit for lists with no structural capacity; only
// the bytes that remain bound them.
const Unbounded = math.MaxInt

// maxCount bounds free-running counters, leaving headroom to keep counting.
const maxCount = 1 << 62

// Codec is one walk's direction, position and sticky error.
type Codec struct {
	buf      []byte // writing: the stream so far; reading: the unread rest
	writing  bool
	err      error
	maxCycle int64
}

// NewWriter starts a stream of the given format version.
func NewWriter(version uint32) *Codec {
	c := &Codec{writing: true, buf: append(make([]byte, 0, 64<<10), magic...)}
	Int(c, &version)
	return c
}

// NewReader opens a stream for reading; a stream of another format or
// version fails every walk.
func NewReader(data []byte, version uint32) *Codec {
	c := &Codec{buf: data, maxCycle: maxCount}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		c.Failf("state: not a checkpoint stream")
		return c
	}
	c.buf = data[len(magic):]
	var got uint32
	if Int(c, &got); got != version {
		c.Failf("state: stream version %d, want %d", got, version)
	}
	return c
}

// Writing reports the walk's direction.
func (c *Codec) Writing() bool { return c.writing }

// Err returns the first failure, if any.
func (c *Codec) Err() error { return c.err }

// Failf fails the walk unless it already has.
func (c *Codec) Failf(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
}

// Bytes ends a writing walk and returns the stream.
func (c *Codec) Bytes() ([]byte, error) { return c.buf, c.err }

// Close ends a reading walk: bytes nobody walked are as wrong as missing ones.
func (c *Codec) Close() error {
	if !c.writing && len(c.buf) != 0 {
		c.Failf("state: %d trailing bytes", len(c.buf))
	}
	return c.err
}

// Integer is every field type the machine's state is made of.
type Integer interface {
	~int | ~int8 | ~int32 | ~int64 | ~uint8 | ~uint32 | ~uint64
}

// Int walks one integer; reading, the value must fit the field's type.
func Int[T Integer](c *Codec, p *T) {
	if c.writing {
		c.buf = binary.AppendVarint(c.buf, int64(*p))
		return
	}
	if c.err != nil {
		return
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.Failf("state: truncated stream")
		return
	}
	c.buf = c.buf[n:]
	if int64(T(v)) != v {
		c.Failf("state: value %d does not fit %T", v, *p)
		return
	}
	*p = T(v)
}

// Ints walks several fields of one type.
func Ints[T Integer](c *Codec, ps ...*T) {
	for _, p := range ps {
		Int(c, p)
	}
}

// within walks an integer that must lie in [lo,hi).
func within[T Integer](c *Codec, p *T, lo, hi int64) {
	if Int(c, p); !c.writing && c.err == nil && (int64(*p) < lo || int64(*p) >= hi) {
		c.Failf("state: value %d outside [%d,%d)", *p, lo, hi)
	}
}

// Index walks a value later used as an index into n entries.
func Index[T Integer](c *Codec, p *T, n int) { within(c, p, 0, int64(n)) }

// Ref is Index admitting the nil marker -1.
func Ref[T Integer](c *Codec, p *T, n int) { within(c, p, -1, int64(n)) }

// Enum walks an enumeration whose last member is max.
func Enum[T ~uint8](c *Codec, p *T, max T) { within(c, p, 0, int64(max)+1) }

// Count walks a free-running non-negative counter.
func Count[T Integer](c *Codec, p *T) { within(c, p, 0, maxCount) }

// SetMaxCycle bounds every timestamp read from here on. Machines schedule
// work at the timestamps they hold, so one forged far-future value would
// have the event calendar grow without limit.
func (c *Codec) SetMaxCycle(max int64) { c.maxCycle = max }

// Cycle walks a timestamp: any past, but a bounded future.
func (c *Codec) Cycle(p *int64) { within(c, p, math.MinInt64, c.maxCycle+1) }

// Bools walks flags.
func (c *Codec) Bools(ps ...*bool) {
	for _, p := range ps {
		var b uint8
		if *p {
			b = 1
		}
		Enum(c, &b, 1)
		*p = b == 1
	}
}

// Bool walks one flag (the element form of Bools).
func (c *Codec) Bool(p *bool) { c.Bools(p) }

// length walks a length prefix. Every element takes at least one byte, so
// a count beyond the bytes that remain is corrupt — checked before anything
// is allocated.
func (c *Codec) length(n *int, max int, what string) {
	if Int(c, n); !c.writing && c.err == nil && (*n < 0 || *n > max || *n > len(c.buf)) {
		c.Failf("state: %s length %d exceeds its limit %d or the %d bytes left", what, *n, max, len(c.buf))
	}
}

// String walks a string.
func (c *Codec) String(p *string) {
	n := len(*p)
	if c.length(&n, Unbounded, "string"); c.writing {
		c.buf = append(c.buf, *p...)
	} else if c.err == nil {
		*p, c.buf = string(c.buf[:n]), c.buf[n:]
	}
}

// Fixed walks a slice whose length the machine's geometry fixes: the
// stream's count must match the slice the reader already holds.
func Fixed[T any](c *Codec, s []T, what string, elem func(*Codec, *T)) {
	n := len(s)
	if Int(c, &n); n != len(s) {
		c.Failf("state: %s has %d entries, this machine has %d", what, n, len(s))
	}
	for i := 0; i < len(s) && c.err == nil; i++ {
		elem(c, &s[i])
	}
}

// Slice walks a variable-length list of at most max elements; reading, it
// replaces *s with a fresh slice.
func Slice[T any](c *Codec, s *[]T, max int, what string, elem func(*Codec, *T)) {
	n := len(*s)
	if c.length(&n, max, what); c.err != nil {
		return
	}
	if !c.writing {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// Counters walks a pointer to a statistics struct whose fields are all
// int64 or []int64 (per-thread slices, fixed-length) — the kinds Stats.Sub
// subtracts — so a new counter is checkpointed without being listed.
func (c *Codec) Counters(stats any) {
	v := reflect.ValueOf(stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i).Addr().Interface().(type) {
		case *int64:
			Int(c, f)
		case *[]int64:
			Fixed(c, *f, v.Type().Field(i).Name, Int[int64])
		default:
			panic(fmt.Sprintf("state: Counters cannot walk field %s (%T)", v.Type().Field(i).Name, f))
		}
	}
}
