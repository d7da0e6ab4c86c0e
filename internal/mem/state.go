package mem

import "repro/internal/state"

// state walks one cache level: the tag array plus every timing cursor the
// bandwidth model carries, so a restored cache reproduces identical hit/miss
// and conflict behavior from the saved cycle onward. Timestamps walk as
// Cycle: they become completion times the core schedules events at.
func (k *cache) state(c *state.Codec) {
	state.Fixed(c, k.lines, k.name+" lines", func(c *state.Codec, l *line) {
		// Lines are never invalidated once filled, so an invalid line —
		// most of a warmed L3 — is all zeroes, as in the fresh cache a
		// restore starts from: its one flag is its whole state.
		if c.Bool(&l.valid); l.valid {
			c.Bool(&l.dirty)
			state.Int(c, &l.tag)
			state.Int(c, &l.lru)
		}
	})
	state.Int(c, &k.lruTick)
	state.Fixed(c, k.bankLast, k.name+" banks", (*state.Codec).Cycle)
	k.fill.state(c, k.name+" fill windows")
	k.bus.state(c, k.name+" bus windows")
	state.Slice(c, &k.mshr, k.cfg.MSHRs, k.name+" MSHRs", func(c *state.Codec, e *mshrEntry) {
		state.Int(c, &e.line)
		c.Cycle(&e.done)
		c.Bool(&e.dirty)
	})
	c.Cycle(&k.access.next)
	c.Counters(&k.stats)
}

// state walks a calendar's windows. Reading, they must be non-empty,
// disjoint and sorted by start, as reserve keeps them, and land in the
// calendar's own backing array, so a restored calendar allocates no more
// than a live one.
func (k *calendar) state(c *state.Codec, what string) {
	win := k.win
	state.Slice(c, &win, state.Unbounded, what, func(c *state.Codec, iv *interval) {
		c.Cycle(&iv.start)
		c.Cycle(&iv.end)
		state.Int(c, &iv.banks)
	})
	if c.Writing() || c.Err() != nil {
		return
	}
	if k.unlimited && len(win) > 0 {
		c.Failf("state: %s: %d windows on an unlimited port", what, len(win))
		return
	}
	for i, w := range win {
		if w.end <= w.start || i > 0 && w.start < win[i-1].end {
			c.Failf("state: %s window %d [%d,%d) is empty or out of order", what, i, w.start, w.end)
			return
		}
	}
	k.win = append(k.win[:0], win...)
}

// state walks one TLB.
func (t *TLB) state(c *state.Codec) {
	state.Fixed(c, t.pages, "TLB pages", state.Int[uint64])
	state.Fixed(c, t.lru, "TLB LRU stamps", state.Int[uint32])
	state.Fixed(c, t.valid, "TLB valid bits", (*state.Codec).Bool)
	state.Fixed(c, t.ready, "TLB walk completions", (*state.Codec).Cycle)
	state.Int(c, &t.lruTick)
	state.Index(c, &t.last, len(t.pages))
	c.Counters(&t.stats)
}

// State walks the complete memory system. Reading requires a hierarchy of
// the saved geometry; a failed read leaves it partially overwritten, so
// callers discard it and run cold.
func (h *Hierarchy) State(c *state.Codec) {
	c.Cycle(&h.now)
	for _, k := range h.caches {
		k.state(c)
	}
	h.itlb.state(c)
	h.dtlb.state(c)
}
