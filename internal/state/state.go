// Package state is the checkpoint wire format, and the only code that
// knows it. A Codec is one pass over a machine's mutable state, either
// writing it to a flat binary stream or reading it back: every component
// exposes a single walk function that names each mutable field once, next
// to the range it must satisfy, and the codec runs that walk in both
// directions. Checkpointing a new field is one line in its component's walk.
//
// A stream is an envelope — a magic tag and the format version, neither
// compressed — followed by the body: the walked values, every integer a
// zig-zag varint, through one deflate stream. Most of a warmed machine is
// repetitive (invalid cache lines above all), so a body deflates 4–9×.
// Reads are defensive — the bytes may come from disk or the network: the
// envelope is checked before anything is inflated; the body is inflated
// whole before the walk starts, and rejected if it inflates past MaxBody
// or leaves bytes after its final block; a walk fails on the first value
// out of its range, length or type; the first failure sticks and every
// later call is a no-op; and a length prefix can never allocate more
// elements than there are inflated bytes left to decode them from.
package state

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
)

const magic = "SMTS"

// MaxBody caps what one body may inflate to: smtd's limit on a checkpoint
// PUT, so no stream inflates past what the service would take raw, and
// hundreds of times the body of any machine the paper studies.
const MaxBody = 64 << 20

// Unbounded is the Slice limit for lists with no structural capacity; only
// the bytes that remain bound them.
const Unbounded = math.MaxInt

// maxCount bounds free-running counters, leaving headroom to keep counting.
const maxCount = 1 << 62

// Codec is one walk's direction, position and sticky error.
type Codec struct {
	buf      []byte // writing: the body so far; reading: the unread rest
	writing  bool
	version  uint32    // writing: the envelope's version
	un       *unpacker // reading: holds the inflated body until Close
	err      error
	maxCycle int64
}

// NewWriter starts a stream of the given format version.
func NewWriter(version uint32) *Codec {
	return &Codec{writing: true, version: version, buf: make([]byte, 0, 64<<10)}
}

// NewReader opens a stream for reading; a stream of another format or
// version, or a body that does not inflate cleanly, fails every walk.
func NewReader(data []byte, version uint32) *Codec {
	c := &Codec{maxCycle: maxCount, un: unpackers.Get().(*unpacker)}
	if c.err = c.un.unpack(data, version); c.err == nil {
		c.buf = c.un.body
	}
	return c
}

// packer is a reusable deflate stage: each flate.NewWriter allocates about
// 1.2 MB, more than the streams it writes.
type packer struct {
	zw  *flate.Writer
	out bytes.Buffer
}

var packers = sync.Pool{New: func() any {
	p := new(packer)
	p.zw, _ = flate.NewWriter(&p.out, flate.BestSpeed) // BestSpeed is a valid level
	return p
}}

// Pack wraps a body of walked values in the envelope of the given version
// and deflates it: the stream a writing walk's Bytes returns.
func Pack(version uint32, body []byte) []byte {
	p := packers.Get().(*packer)
	defer packers.Put(p)
	p.out.Reset()
	p.out.WriteString(magic)
	p.out.Write(binary.AppendVarint(p.out.AvailableBuffer(), int64(version)))
	p.zw.Reset(&p.out)
	p.zw.Write(body) // a bytes.Buffer takes every write
	p.zw.Close()
	return bytes.Clone(p.out.Bytes())
}

// unpacker is a reusable inflate stage and the body it inflated last. src
// is a ByteReader, so the inflater reads no byte past the final block and
// whatever follows is still in src to be rejected.
type unpacker struct {
	src  bytes.Reader
	zr   io.ReadCloser
	body []byte
}

var unpackers = sync.Pool{New: func() any {
	u := new(unpacker)
	u.zr = flate.NewReader(&u.src)
	return u
}}

// Unpack checks a stream's envelope against version and returns its
// inflated body: what a reading walk walks.
func Unpack(data []byte, version uint32) ([]byte, error) {
	u := unpackers.Get().(*unpacker)
	defer unpackers.Put(u)
	err := u.unpack(data, version)
	body := u.body
	u.body = nil // the caller's now
	return body, err
}

// unpack inflates data's body into u.body, reusing its backing array. The
// body is inflated into chunks that double in size, so one that would
// inflate past MaxBody is rejected having allocated at most MaxBody+1
// bytes, whatever its deflated size.
func (u *unpacker) unpack(data []byte, version uint32) error {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return fmt.Errorf("state: not a checkpoint stream")
	}
	got, n := binary.Varint(data[len(magic):])
	if n <= 0 {
		return fmt.Errorf("state: truncated stream")
	}
	if got != int64(version) {
		return fmt.Errorf("state: stream version %d, want %d", got, version)
	}
	// A pooled unpacker must not pin the caller's bytes. Reset never fails.
	u.src.Reset(data[len(magic)+n:])
	defer u.src.Reset(nil)
	u.zr.(flate.Resetter).Reset(&u.src, nil)
	buf := u.body[:0]
	if want := min(max(8*u.src.Len(), 4<<10), MaxBody+1); cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	u.body = buf
	var full [][]byte
	size := 0
	for {
		n, err := u.zr.Read(buf[len(buf):cap(buf)])
		buf, size = buf[:len(buf)+n], size+n
		switch {
		case size > MaxBody:
			return fmt.Errorf("state: body inflates past its %d-byte cap", MaxBody)
		case err == io.EOF:
			if u.src.Len() != 0 {
				return fmt.Errorf("state: %d bytes after the body's final block", u.src.Len())
			}
			if full != nil {
				buf = slices.Concat(append(full, buf)...)
			}
			u.body = buf
			return nil
		case err != nil:
			return fmt.Errorf("state: body does not inflate: %w", err)
		case len(buf) == cap(buf):
			full = append(full, buf)
			buf = make([]byte, 0, min(2*cap(buf), MaxBody+1-size))
		}
	}
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
func (c *Codec) Bytes() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	return Pack(c.version, c.buf), nil
}

// Close ends a reading walk: bytes nobody walked are as wrong as missing
// ones. The inflated body goes back for the next reader to reuse; walking
// on after Close finds the stream truncated.
func (c *Codec) Close() error {
	if !c.writing && len(c.buf) != 0 {
		c.Failf("state: %d trailing bytes", len(c.buf))
	}
	if c.un != nil {
		unpackers.Put(c.un)
		c.un, c.buf = nil, nil
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
