package mem

import "testing"

// FuzzCalendar runs random reserve sequences against a brute-force
// occupancy bitmap. Each operation is three bytes: how far the current
// cycle advances, how far past it the request is made, and its length. It
// checks that every booking is the first gap at or after its request
// cycle, that the windows stay non-empty, disjoint and sorted, and that
// pruning never changes a booking: a twin calendar that is never pruned
// books the same cycles.
//
//	go test ./internal/mem -run '^$' -fuzz FuzzCalendar -fuzztime 30s
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{0, 10, 4, 0, 5, 4, 0, 8, 4, 0, 30, 1, 0, 31, 0, 0, 0, 5})
	f.Add([]byte{1, 0, 8, 1, 0, 8, 1, 0, 8, 7, 3, 2, 0, 0, 1, 2, 31, 8})
	f.Add([]byte{0, 0, 3, 0, 6, 3, 0, 3, 3, 0, 1, 2, 0, 0, 1, 4, 0, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var pruned, whole calendar
		var busy []bool // busy[c]: cycle c is booked
		now := int64(0)
		for i := 0; i+2 < len(ops); i += 3 {
			now += int64(ops[i] % 8)
			pruned.prune(now)
			at, dur := now+int64(ops[i+1]%32), int64(ops[i+2]%9)
			want := at
			for ; dur > 0; want++ {
				free := true
				for c := want; c < want+dur; c++ {
					if c < int64(len(busy)) && busy[c] {
						free = false
						break
					}
				}
				if free {
					break
				}
			}
			for int64(len(busy)) < want+dur {
				busy = append(busy, false)
			}
			for c := want; c < want+dur; c++ {
				busy[c] = true
			}
			got, full := pruned.reserve(at, dur, 1), whole.reserve(at, dur, 1)
			if got != want || full != want {
				t.Fatalf("op %d: reserve(%d, %d) at cycle %d = %d (never pruned: %d), want the first gap at %d",
					i/3, at, dur, now, got, full, want)
			}
			for _, c := range []*calendar{&pruned, &whole} {
				for k, w := range c.win {
					if w.end <= w.start || k > 0 && w.start < c.win[k-1].end {
						t.Fatalf("op %d: window %d of %v is empty or out of order", i/3, k, c.win)
					}
				}
			}
			for _, w := range pruned.win {
				if w.end <= now {
					t.Fatalf("op %d: window %v over by cycle %d survived the prune", i/3, w, now)
				}
			}
		}
	})
}
