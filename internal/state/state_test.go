package state

import (
	"math"
	"testing"
)

const testVersion = 7

type counters struct {
	Hits, Misses int64
	PerThread    []int64
}

// machine stands in for a component: one walk, both directions.
type machine struct {
	cycle   int64
	cursor  int
	mode    uint8
	parent  int32
	flags   []bool
	queue   []uint32
	name    string
	stats   counters
	stamp   int64
	queueOf int // capacity the walk enforces on queue
}

func (m *machine) walk(c *Codec) {
	Count(c, &m.cycle)
	c.SetMaxCycle(m.cycle + 100)
	Index(c, &m.cursor, len(m.flags))
	Enum(c, &m.mode, 2)
	Ref(c, &m.parent, 10)
	Fixed(c, m.flags, "flags", (*Codec).Bool)
	Slice(c, &m.queue, m.queueOf, "queue", Int[uint32])
	c.String(&m.name)
	c.Counters(&m.stats)
	c.Cycle(&m.stamp)
}

func sample() *machine {
	return &machine{cycle: 5000, cursor: 2, mode: 2, parent: -1, flags: []bool{true, false, true},
		queue: []uint32{1, 1 << 31, 7}, name: "espresso", stamp: 5090, queueOf: 4,
		stats: counters{Hits: 9, Misses: -3, PerThread: []int64{4, 5}}}
}

func blank() *machine {
	return &machine{flags: make([]bool, 3), queueOf: 4, stats: counters{PerThread: make([]int64, 2)}}
}

func encode(t *testing.T, m *machine) []byte { return encodeAs(t, testVersion, m) }

func encodeAs(t *testing.T, version uint32, m *machine) []byte {
	t.Helper()
	c := NewWriter(version)
	m.walk(c)
	data, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decode(data []byte, m *machine) error {
	c := NewReader(data, testVersion)
	m.walk(c)
	return c.Close()
}

func TestRoundTrip(t *testing.T) {
	data := encode(t, sample())
	got := blank()
	if err := decode(data, got); err != nil {
		t.Fatal(err)
	}
	if again := encode(t, got); string(again) != string(data) {
		t.Fatalf("write -> read -> write changed the bytes:\n%x\n%x", data, again)
	}
	if got.name != "espresso" || got.queue[1] != 1<<31 || got.stats.PerThread[1] != 5 || got.parent != -1 {
		t.Fatalf("read back %+v", got)
	}
}

// Every malformed stream is an error — never a panic, never a partial
// success — and none makes the reader allocate past the input's size.
func TestMalformedStreams(t *testing.T) {
	good := encode(t, sample())
	mutate := func(f func(m *machine)) []byte {
		m := sample()
		f(m)
		return encode(t, m)
	}
	cases := map[string][]byte{
		"empty":             nil,
		"wrong magic":       append([]byte("JSON"), good[4:]...),
		"v1 JSON":           []byte(`{"version":1,"fingerprint":"abc","core":{}}`),
		"wrong version":     encodeAs(t, testVersion+1, sample()),
		"trailing bytes":    append(append([]byte(nil), good...), 0),
		"index past end":    mutate(func(m *machine) { m.cursor = 3 }),
		"negative index":    mutate(func(m *machine) { m.cursor = -1 }),
		"enum past max":     mutate(func(m *machine) { m.mode = 3 }),
		"ref below nil":     mutate(func(m *machine) { m.parent = -2 }),
		"ref past end":      mutate(func(m *machine) { m.parent = 10 }),
		"negative count":    mutate(func(m *machine) { m.cycle = -1 }),
		"fixed length":      mutate(func(m *machine) { m.flags = append(m.flags, true) }),
		"over capacity":     mutate(func(m *machine) { m.queue = append(m.queue, 1, 2) }),
		"per-thread length": mutate(func(m *machine) { m.stats.PerThread = []int64{1} }),
		"future timestamp":  mutate(func(m *machine) { m.stamp = m.cycle + 101 }),
	}
	for n := 0; n < len(good); n++ {
		if err := decode(good[:n], blank()); err == nil {
			t.Fatalf("stream truncated to %d of %d bytes decoded cleanly", n, len(good))
		}
	}
	for name, data := range cases {
		m := blank()
		// The bound is on what rejecting costs, O(1) whatever the stream —
		// so take the least of a few runs: under -race sync.Pool drops
		// entries at random, and a run in which fmt has to reallocate its
		// pooled buffers counts the detector, not the decoder.
		allocs := math.Inf(1)
		for i := 0; i < 5; i++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() {
				if err := decode(data, m); err == nil {
					t.Errorf("%s: decoded cleanly", name)
				}
			}))
		}
		if allocs > 8 {
			t.Errorf("%s: %v allocations to reject %d bytes", name, allocs, len(data))
		}
	}
}

// A length prefix is checked against the bytes that remain before anything
// is allocated: a 20-byte stream claiming 2^40 elements must fail in O(1).
func TestOversizedLengthPrefix(t *testing.T) {
	for _, limit := range []int{Unbounded, 1 << 50} {
		c := NewWriter(testVersion)
		n := int64(1) << 40
		Int(c, &n)
		data, _ := c.Bytes()
		data = append(data, make([]byte, 16)...)

		r := NewReader(data, testVersion)
		var list []int64
		allocs := testing.AllocsPerRun(1, func() { Slice(r, &list, limit, "list", Int[int64]) })
		if r.Err() == nil || list != nil || allocs > 4 {
			t.Fatalf("limit %d: err=%v len=%d allocs=%v", limit, r.Err(), len(list), allocs)
		}
		var s string
		r = NewReader(data, testVersion)
		if r.String(&s); r.Err() == nil || s != "" {
			t.Fatalf("oversized string accepted: %q", s)
		}
	}
}

// A value only a wider type can hold does not fit a narrower field.
func TestIntegerWidth(t *testing.T) {
	c := NewWriter(testVersion)
	wide, neg := int64(1)<<40, int64(-1)
	Ints(c, &wide, &neg, &wide)
	data, _ := c.Bytes()

	r := NewReader(data, testVersion)
	var u32 uint32
	if Int(r, &u32); r.Err() == nil {
		t.Fatal("2^40 fit a uint32")
	}
	r = NewReader(data, testVersion)
	var u64 uint64
	var u8 uint8
	if Int(r, &u64); r.Err() != nil || u64 != 1<<40 {
		t.Fatalf("uint64 read %d, %v", u64, r.Err())
	}
	if Int(r, &u8); r.Err() == nil {
		t.Fatal("-1 fit a uint8")
	}
	big := uint64(math.MaxUint64)
	c = NewWriter(testVersion)
	Int(c, &big)
	data, _ = c.Bytes()
	if Int(NewReader(data, testVersion), &u64); u64 != math.MaxUint64 {
		t.Fatalf("MaxUint64 read back as %d", u64)
	}
}

// The first failure wins and silences everything after it.
func TestStickyError(t *testing.T) {
	r := NewReader(encode(t, sample()), testVersion)
	var idx int
	Index(r, &idx, 1) // reads cycle 5000 as an index into one entry
	first := r.Err()
	if first == nil {
		t.Fatal("out-of-range index accepted")
	}
	m := blank()
	m.walk(r)
	r.Failf("later")
	if r.Err() != first || r.Close() != first {
		t.Fatalf("error changed from %v to %v", first, r.Err())
	}
	if m.name != "" || m.queue != nil || m.cursor != 0 {
		t.Fatalf("walk after a failure still installed values: %+v", m)
	}
}

func TestCountersRejectsOtherKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Counters walked a float field it cannot encode")
		}
	}()
	NewWriter(testVersion).Counters(&struct{ Rate float64 }{})
}
