package state

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// zeros returns a stream of testVersion whose body is n zero bytes,
// deflated a MiB at a time so that building it allocates no body.
func zeros(n int) []byte {
	out := bytes.NewBufferString(magic)
	out.Write(binary.AppendVarint(nil, testVersion))
	zw, _ := flate.NewWriter(out, flate.BestSpeed)
	chunk := make([]byte, 1<<20)
	for ; n > 0; n -= len(chunk) {
		zw.Write(chunk[:min(n, len(chunk))])
	}
	zw.Close()
	return out.Bytes()
}

// bomb is a stream of about 80 KB whose body inflates to a MiB past the
// cap. Deflate shrinks at most about 1000×, so no smaller stream does.
var bomb = sync.OnceValue(func() []byte { return zeros(MaxBody + 1<<20) })

// A body that inflates past MaxBody is rejected with an error naming the
// cap, having allocated about the cap and no more: inflating into chunks
// that double, never into one buffer regrown by copying, which would
// allocate twice the cap before it could refuse. A body of exactly the cap
// is accepted.
func TestBodyCap(t *testing.T) {
	data := bomb()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewReader(data, testVersion).Close()
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxBody)) {
		t.Fatalf("a %d-byte stream inflating past the cap: %v, want an error naming %d", len(data), err, MaxBody)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > MaxBody+1<<20 {
		t.Errorf("rejecting a %d-byte stream allocated %d bytes, over the cap plus 1 MiB", len(data), got)
	}
	t.Logf("rejecting a %d-byte stream allocated %d bytes", len(data), got)

	body, err := Unpack(zeros(MaxBody), testVersion)
	if err != nil || len(body) != MaxBody {
		t.Fatalf("a body of exactly the cap: %d bytes, %v", len(body), err)
	}
}

// reference reads data the way the format defines it, with compress/flate
// and encoding/binary alone: the testVersion envelope, then one deflate
// stream with nothing after its final block that inflates to at most
// MaxBody bytes of whole varints. It returns those values.
func reference(data []byte) ([]int64, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		return nil, false
	}
	v, n := binary.Varint(rest)
	if n <= 0 || v != testVersion {
		return nil, false
	}
	src := bytes.NewReader(rest[n:])
	size, err := io.Copy(io.Discard, io.LimitReader(flate.NewReader(src), MaxBody+1))
	if err != nil || size > MaxBody || src.Len() != 0 {
		return nil, false
	}
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(rest[n:])))
	if err != nil {
		return nil, false
	}
	var vals []int64
	for len(body) > 0 {
		v, n := binary.Varint(body)
		if n <= 0 {
			return nil, false
		}
		vals, body = append(vals, v), body[n:]
	}
	return vals, true
}

// readAll walks a stream as a list of integers until its body runs out.
func readAll(data []byte) ([]int64, error) {
	c := NewReader(data, testVersion)
	var vals []int64
	for c.Err() == nil && len(c.buf) > 0 {
		var v int64
		Int(c, &v)
		vals = append(vals, v)
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return vals, nil
}

// FuzzReader feeds arbitrary bytes to the reader, which takes them from
// disk and the network. NewReader and Close must never panic, and must
// accept exactly what reference accepts, with the same values; and what
// they accept reads back the same after a fresh Pack. The corpus is seeded
// with a real stream, its truncations (cut deflate blocks), a trailing
// byte after the final block, a wrong version, garbage and a body past
// the cap.
func FuzzReader(f *testing.F) {
	good := encode(f, sample())
	for n := len(good); n > 0; n /= 2 {
		f.Add(good[:n])
	}
	f.Add(append(slices.Clone(good), 0))
	f.Add(encodeAs(f, testVersion+1, sample()))
	f.Add([]byte("not a checkpoint stream"))
	f.Add(bomb())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readAll(data)
		want, ok := reference(data)
		switch {
		case (err == nil) != ok:
			t.Fatalf("reader says %v, the reference says well-formed %v", err, ok)
		case !ok:
			return
		case !slices.Equal(got, want):
			t.Fatalf("read %v, the reference reads %v", got, want)
		}
		var body []byte
		for _, v := range got {
			body = binary.AppendVarint(body, v)
		}
		if again, err := readAll(Pack(testVersion, body)); err != nil || !slices.Equal(again, got) {
			t.Fatalf("repacked: %v, %v; want %v", again, err, got)
		}
	})
}

// Writers and readers share pooled deflate and inflate stages, and a
// reader keeps its body until Close: streams written and read from many
// goroutines at once must each round-trip to their own values.
func TestConcurrentStreams(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := sample()
				m.cycle += int64(1000*g + i)
				m.stamp = m.cycle
				m.name = strings.Repeat("x", 100*g+i)
				c := NewWriter(testVersion)
				m.walk(c)
				data, err := c.Bytes()
				got := blank()
				if err == nil {
					err = decode(data, got)
				}
				if err != nil || got.cycle != m.cycle || got.name != m.name {
					t.Errorf("goroutine %d stream %d: %v, read cycle %d name of %d bytes", g, i, err, got.cycle, len(got.name))
					return
				}
			}
		}()
	}
	wg.Wait()
}
