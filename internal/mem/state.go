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
	state.Slice(c, &k.fills, state.Unbounded, k.name+" fills", func(c *state.Codec, iv *interval) {
		c.Cycle(&iv.start)
		c.Cycle(&iv.end)
		state.Int(c, &iv.banks)
	})
	state.Slice(c, &k.mshr, k.cfg.MSHRs, k.name+" MSHRs", func(c *state.Codec, e *mshrEntry) {
		state.Int(c, &e.line)
		c.Cycle(&e.done)
		c.Bool(&e.dirty)
	})
	c.Cycle(&k.access.next)
	c.Cycle(&k.fill.next)
	c.Cycle(&k.bus.next)
	c.Counters(&k.stats)
}

// state walks one TLB.
func (t *TLB) state(c *state.Codec) {
	state.Fixed(c, t.pages, "TLB pages", state.Int[uint64])
	state.Fixed(c, t.lru, "TLB LRU stamps", state.Int[uint32])
	state.Fixed(c, t.valid, "TLB valid bits", (*state.Codec).Bool)
	state.Int(c, &t.lruTick)
	state.Index(c, &t.last, len(t.pages))
	c.Counters(&t.stats)
}

// State walks the complete memory system. Reading requires a hierarchy of
// the saved geometry; a failed read leaves it partially overwritten, so
// callers discard it and run cold.
func (h *Hierarchy) State(c *state.Codec) {
	for _, k := range h.caches {
		k.state(c)
	}
	h.itlb.state(c)
	h.dtlb.state(c)
}
