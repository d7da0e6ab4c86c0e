package workload

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/state"
)

// granule is the unit snapshot.TraceCache rounds trace lengths to. Nothing
// in this package depends on it; it is here so the replay boundaries
// tested are the lengths the cache actually builds.
const granule = 64 << 10

// A trace costs at most a byte a record for every profile, and its Bytes
// count the program it pins: the static code alone outweighs two granules
// of records for most profiles.
func TestTraceBytesPerRecord(t *testing.T) {
	if got := unsafe.Sizeof(isa.Static{}); got != 32 {
		t.Errorf("isa.Static is %d bytes, want 32", got)
	}
	const n = 2 * granule
	for _, prof := range Profiles() {
		p := MustNew(prof, 1, 0)
		empty, tr := BuildTrace(p, 0), BuildTrace(p, n)
		perRecord := float64(tr.Bytes()-empty.Bytes()) / n
		t.Logf("%-8s %.3f bytes a record; program %7d bytes, trace of %d records %7d", prof.Name, perRecord, p.Bytes(), n, tr.Bytes())
		if perRecord > 1 {
			t.Errorf("%s: %.3f bytes a record, want at most 1", prof.Name, perRecord)
		}
		if code := int64(len(p.Code)) * 32; empty.Bytes() <= p.Bytes() || p.Bytes() < code {
			t.Errorf("%s: empty trace %d bytes, program %d, code %d: want the code in the program and the program in the trace",
				prof.Name, empty.Bytes(), p.Bytes(), code)
		}
	}
}

// encodeState runs one State walk in the writing direction.
func encodeState(t *testing.T, walk func(*state.Codec)) []byte {
	t.Helper()
	sc := state.NewWriter(1)
	walk(sc)
	data, err := sc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A trace stores only branch directions, table slots and addresses: the
// cursor re-derives every PC and NextPC by walking the code, and resumes a
// restore from the seek point before it. For every profile, at prefix
// lengths around the cache's granule, replay must yield field for field
// what a live walker yields — across the last prefix record and the first
// spilled one — and PC() and State must agree with the walker's on both
// sides of every boundary, including after a restore onto a fresh cursor
// there and on both sides of every seek point.
func TestCursorMatchesWalker(t *testing.T) {
	for _, prof := range Profiles() {
		p := MustNew(prof, 7, 3)
		for _, n := range []int64{0, 1, granule - 1, granule, granule + 1} {
			tr := BuildTrace(p, n)
			if int64(tr.Len()) != n {
				t.Fatalf("%s: BuildTrace(%d) holds %d records", prof.Name, n, tr.Len())
			}
			w, c := NewWalker(p), tr.NewCursor()
			for i := int64(0); i < n+1000; i++ {
				if c.PC() != w.PC() {
					t.Fatalf("%s n=%d: before record %d cursor PC %#x, walker PC %#x", prof.Name, n, i, c.PC(), w.PC())
				}
				atEnd := i >= n-1 && i <= n+1
				if atEnd || (i < n && (i+1)%seekEvery <= 2) {
					want := encodeState(t, w.State)
					if atEnd && !bytes.Equal(encodeState(t, c.State), want) {
						t.Fatalf("%s n=%d: cursor state before record %d differs from the walker's", prof.Name, n, i)
					}
					// A fresh cursor restored here must continue identically.
					rc := tr.NewCursor()
					sc := state.NewReader(want, 1)
					if rc.State(sc); sc.Close() != nil {
						t.Fatalf("%s n=%d: restore before record %d: %v", prof.Name, n, i, sc.Close())
					}
					rw := w.clone()
					for j := 0; j < 4; j++ {
						if got, want := rc.Next(), rw.Next(); got != want {
							t.Fatalf("%s n=%d: restored at %d, record +%d = %+v, want %+v", prof.Name, n, i, j, got, want)
						}
					}
				}
				if got, want := c.Next(), w.Next(); got != want {
					t.Fatalf("%s n=%d: record %d = %+v, walker yields %+v", prof.Name, n, i, got, want)
				}
			}
		}
	}
}
