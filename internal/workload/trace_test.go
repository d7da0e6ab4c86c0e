package workload

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/state"
)

// granule is the unit snapshot.TraceCache rounds trace lengths to. Nothing
// in this package depends on it; it is here so the replay boundaries
// tested are the lengths the cache actually builds.
const granule = 64 << 10

func TestTraceRecordIs12Bytes(t *testing.T) {
	if got := unsafe.Sizeof(traceRec{}); got != traceRecBytes {
		t.Fatalf("traceRec is %d bytes, traceRecBytes says %d", got, traceRecBytes)
	}
	prof, _ := ProfileByName("espresso")
	if got := BuildTrace(MustNew(prof, 1, 0), 1000).Bytes(); got != 1000*traceRecBytes {
		t.Fatalf("Bytes() = %d for 1000 records, want %d", got, 1000*traceRecBytes)
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

// A trace stores neither PC nor NextPC: the cursor re-derives them from
// this record's and the next record's static index, and from the frozen end
// walker at the last prefix record. For every profile, at prefix lengths
// around the cache's granule, replay must yield field for field what a
// live walker yields — across the last prefix record and the first spilled
// one — and PC() and State must agree with the walker's on both sides of
// every boundary, including after a restore onto a fresh cursor.
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
				if i >= n-1 && i <= n+1 {
					want := encodeState(t, w.State)
					if got := encodeState(t, c.State); !bytes.Equal(got, want) {
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
