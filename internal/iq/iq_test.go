package iq

import (
	"testing"
	"testing/quick"
)

func TestPushOrderAndCapacity(t *testing.T) {
	q := New[int](4, 4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push beyond capacity succeeded")
	}
	if q.Len() != 4 || !q.Full() {
		t.Fatalf("len=%d full=%v", q.Len(), q.Full())
	}
	for i := 0; i < 4; i++ {
		if q.At(i) != i {
			t.Fatalf("age order broken at %d: %d", i, q.At(i))
		}
	}
}

func TestWindowLimitsSearch(t *testing.T) {
	// BIGQ: 8 capacity, 4 searchable.
	q := New[int](8, 4)
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	w := q.Window()
	if len(w) != 4 {
		t.Fatalf("window = %d, want 4", len(w))
	}
	for i, v := range w {
		if v != i {
			t.Fatalf("window[%d] = %d", i, v)
		}
	}
	if len(q.All()) != 6 {
		t.Fatal("All() should include buffered entries")
	}
}

func TestWindowSmallerThanOccupancy(t *testing.T) {
	q := New[int](8, 4)
	q.Push(7)
	if w := q.Window(); len(w) != 1 || w[0] != 7 {
		t.Fatalf("window = %v", w)
	}
}

func TestRemoveIndices(t *testing.T) {
	q := New[int](8, 8)
	for i := 0; i < 6; i++ {
		q.Push(i * 10)
	}
	q.RemoveIndices([]int{1, 3, 4})
	want := []int{0, 20, 50}
	if q.Len() != len(want) {
		t.Fatalf("len = %d", q.Len())
	}
	for i, w := range want {
		if q.At(i) != w {
			t.Fatalf("at %d = %d, want %d", i, q.At(i), w)
		}
	}
}

func TestRemoveIndicesEmptyNoop(t *testing.T) {
	q := New[int](4, 4)
	q.Push(1)
	q.RemoveIndices(nil)
	if q.Len() != 1 {
		t.Fatal("noop removal changed queue")
	}
}

func TestRemoveIndicesPanicsOnBadInput(t *testing.T) {
	q := New[int](4, 4)
	q.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	q.RemoveIndices([]int{5})
}

// RemoveIndices copies from the first removed position on, so the table
// puts the first hole at every interesting place. Entries are pointers so
// that the abandoned tail can be checked for leaks: whatever lies past the
// new length in the backing array must be nil.
func TestRemoveIndicesTable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		remove []int
		want   []int
	}{
		{"nothing", nil, []int{0, 1, 2, 3, 4, 5}},
		{"first hole at 0", []int{0, 3}, []int{1, 2, 4, 5}},
		{"first hole in the middle", []int{2, 3, 5}, []int{0, 1, 4}},
		{"last entry only", []int{5}, []int{0, 1, 2, 3, 4}},
		{"oldest entry only", []int{0}, []int{1, 2, 3, 4, 5}},
		{"all entries", []int{0, 1, 2, 3, 4, 5}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := New[*int](8, 8)
			vals := make([]*int, 6)
			for i := range vals {
				v := i
				vals[i] = &v
				q.Push(vals[i])
			}
			q.RemoveIndices(tc.remove)
			if q.Len() != len(tc.want) {
				t.Fatalf("len = %d, want %d", q.Len(), len(tc.want))
			}
			for i, w := range tc.want {
				if q.At(i) != vals[w] {
					t.Fatalf("at %d = entry %d, want entry %d", i, *q.At(i), w)
				}
			}
			for i, v := range q.items[q.Len():cap(q.items)] {
				if v != nil {
					t.Fatalf("backing slot %d past the new length still holds entry %d", q.Len()+i, *v)
				}
			}
			if !q.Push(vals[0]) || q.At(q.Len()-1) != vals[0] {
				t.Fatal("queue unusable after removal")
			}
		})
	}
}

func TestRemoveIndicesPanicsOnBadInputTable(t *testing.T) {
	for name, bad := range map[string][]int{
		"unsorted":             {3, 1},
		"duplicate":            {1, 1},
		"first out of range":   {4},
		"later out of range":   {1, 4},
		"negative":             {-1},
		"beyond len, in cap":   {5}, // capacity is 8: a bare reslice would not notice
		"unsorted after first": {0, 3, 2},
	} {
		t.Run(name, func(t *testing.T) {
			q := New[int](8, 8)
			for i := 0; i < 4; i++ {
				q.Push(i)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("RemoveIndices(%v) on 4 entries did not panic", bad)
				}
			}()
			q.RemoveIndices(bad)
		})
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, c := range []struct{ capacity, window int }{{0, 0}, {4, 0}, {4, 5}, {-1, -1}} {
		func() {
			defer func() { recover() }()
			New[int](c.capacity, c.window)
			t.Fatalf("New(%d,%d) did not panic", c.capacity, c.window)
		}()
	}
}

// Property: any sequence of pushes and removals preserves relative order of
// survivors and never exceeds capacity.
func TestOrderPreservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := New[int](16, 8)
		next := 0
		var model []int
		for _, op := range ops {
			if op%3 != 0 {
				if q.Push(next) {
					model = append(model, next)
				}
				next++
			} else {
				mod := int(op/3)%4 + 2
				var drop []int
				keep := model[:0]
				for i, v := range model {
					if v%mod == 0 {
						drop = append(drop, i)
					} else {
						keep = append(keep, v)
					}
				}
				q.RemoveIndices(drop)
				model = keep
			}
			if q.Len() > q.Cap() {
				return false
			}
		}
		if q.Len() != len(model) {
			return false
		}
		for i, v := range model {
			if q.At(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
