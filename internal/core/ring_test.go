package core

import (
	"bytes"
	"testing"
	"unsafe"
)

// backingOf identifies a bucket's backing array (nil for no backing).
func backingOf(evs []event) *event {
	if cap(evs) == 0 {
		return nil
	}
	return unsafe.SliceData(evs)
}

// The calendar hands each cycle's events back in the order they were
// scheduled, whichever backing the bucket borrowed and however often the
// ring grew between schedule and drain. Three laps of random schedules
// recycle every backing several times; two far-ahead events force two
// growths mid-run while buckets hold events.
func TestRingKeepsPerBucketFIFO(t *testing.T) {
	var r ring
	r.init(256)
	rnd := xorshift(0x2545F4914F6CDD1D)
	want := map[int64][]int32{}
	var seq int32
	add := func(cycle int64) {
		r.schedule(cycle, evMissDone, nil, seq)
		want[cycle] = append(want[cycle], seq)
		seq++
	}
	const cycles = 3 * 256
	grown := 0
	for c := int64(1); c <= cycles; c++ {
		evs := r.drain(c)
		if len(evs) != len(want[c]) {
			t.Fatalf("cycle %d: drained %d events, want %d", c, len(evs), len(want[c]))
		}
		for i, ev := range evs {
			if ev.thread != want[c][i] {
				t.Fatalf("cycle %d: event %d is #%d, want #%d (FIFO order lost)", c, i, ev.thread, want[c][i])
			}
		}
		delete(want, c)
		for n := rnd.below(6); n > 0; n-- {
			add(c + 1 + int64(rnd.below(int(r.mask))))
		}
		if c == 100 || c == 400 { // beyond the ring: grow with every bucket's events in place
			add(c + 2*(r.mask+1) - 7)
			grown++
		}
	}
	if r.mask+1 != 256<<grown {
		t.Fatalf("ring is %d buckets, want %d after %d growths", r.mask+1, 256<<grown, grown)
	}
	for c := int64(cycles + 1); len(want) > 0; c++ {
		evs := r.drain(c)
		if len(evs) != len(want[c]) {
			t.Fatalf("cycle %d: drained %d events, want %d", c, len(evs), len(want[c]))
		}
		for i, ev := range evs {
			if ev.thread != want[c][i] {
				t.Fatalf("cycle %d: event %d is #%d, want #%d", c, i, ev.thread, want[c][i])
			}
		}
		delete(want, c)
	}
}

// Once the spare list covers the buckets live at once, a lap of the
// calendar — drain a cycle, schedule into the cycles ahead — borrows and
// returns backings without allocating.
func TestRingWarmLapAllocatesNothing(t *testing.T) {
	var r ring
	r.init(1456)
	var c int64
	lap := func() {
		for end := c + r.mask + 1; c < end; c++ {
			r.drain(c)
			for off := int64(1); off <= 40; off += 3 {
				r.schedule(c+off, evMissDone, nil, int32(off))
			}
		}
	}
	lap()
	if n := testing.AllocsPerRun(5, lap); n != 0 {
		t.Fatalf("a warm calendar lap allocates %.0f times, want 0", n)
	}
}

// processEvents walks the drained slice while it schedules: an event it
// adds — for any cycle, including one that grows the ring — must land in
// another backing, or it would overwrite an event not yet processed.
func TestRingDrainedSliceIsNeverReused(t *testing.T) {
	var r ring
	r.init(256)
	const c = 10
	for i := int32(0); i < bucketSeed; i++ {
		r.schedule(c, evMissDone, nil, i)
	}
	evs := r.drain(c)
	before := append([]event(nil), evs...)
	walked := backingOf(evs)
	for i := range evs {
		for off := int64(1); off <= r.mask; off += 5 {
			r.schedule(c+off, evResolve, nil, int32(-i))
		}
		if i == 3 {
			r.schedule(c+r.mask+50, evSquash, nil, -1)
		}
	}
	for i := range evs {
		if evs[i] != before[i] {
			t.Fatalf("drained event %d changed while walked: %+v, was %+v", i, evs[i], before[i])
		}
	}
	for idx, b := range r.buckets {
		if backingOf(b) == walked {
			t.Fatalf("bucket %d borrowed the backing being walked", idx)
		}
	}
	for _, b := range r.spare {
		if backingOf(b) == walked {
			t.Fatal("the backing being walked is on the spare list before the next drain")
		}
	}
	r.drain(c + 1)
	if backingOf(r.spare[len(r.spare)-1]) != walked {
		t.Fatal("the next drain did not hand the walked backing back to the spare list")
	}
}

// A checkpoint taken with events at both ends of the calendar — the next
// cycle and a full ring ahead — restores into the same buckets and saves
// back to the same bytes; the restored machine then steps in lockstep.
func TestRingRestoreSaveRoundTrip(t *testing.T) {
	p := stateTestMachine(t)
	p.Run(4_000, 0)
	for _, off := range []int64{1, p.events.mask} {
		p.threads[1].fb.MissCount++
		p.events.schedule(p.cycle+off, evMissDone, nil, 1)
	}
	saved := writeState(t, p)
	q, err := readState(t, saved)
	if err != nil {
		t.Fatal(err)
	}
	if q.events.mask != p.events.mask {
		t.Fatalf("restored ring has %d buckets, saved %d", q.events.mask+1, p.events.mask+1)
	}
	for _, off := range []int64{1, p.events.mask} {
		idx := (p.cycle + off) & p.events.mask
		if got, want := len(q.events.buckets[idx]), len(p.events.buckets[idx]); got != want {
			t.Fatalf("bucket %d cycles out holds %d events after restore, want %d", off, got, want)
		}
	}
	if again := writeState(t, q); !bytes.Equal(again, saved) {
		t.Fatalf("restore then save changed the checkpoint (%d bytes, was %d)", len(again), len(saved))
	}
	a, b := p.Run(3_000, 0), q.Run(3_000, 0)
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Fatalf("restored machine diverged: %d cycles / %d committed, original %d / %d", b.Cycles, b.Committed, a.Cycles, a.Committed)
	}
}
