package mem

import "fmt"

// TLBConfig sizes one translation lookaside buffer. The paper models
// lockup-free TLBs whose misses "require two full memory accesses and no
// execution resources": MissPenalty is that fixed cost in cycles (two trips
// to memory with the Table 2 latencies ≈ 160 cycles), charged as pure
// latency without occupying cache bandwidth.
type TLBConfig struct {
	Entries     int
	PageBytes   int
	MissPenalty int
}

// Validate reports configuration errors.
func (c TLBConfig) Validate(name string) error {
	switch {
	case c.Entries < 1 || c.Entries > maxTLB:
		return fmt.Errorf("mem: %s entries %d, want 1..%d", name, c.Entries, maxTLB)
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("mem: %s page size %d not a power of two", name, c.PageBytes)
	}
	return cycles(name+" MissPenalty", c.MissPenalty, 0)
}

// TLB is a fully associative, LRU translation buffer. Simulated addresses
// carry a per-thread address-space tag in their high bits, so entries are
// naturally private to a thread while the capacity is shared — matching a
// shared TLB under a multiprogrammed workload.
type TLB struct {
	cfg       TLBConfig
	pages     []uint64
	lru       []uint32
	valid     []bool
	ready     []int64 // the cycle each entry's walk finishes
	lruTick   uint32
	last      int  // entry of the most recent hit or install (MRU filter)
	pageShift uint // PageBytes is a validated power of two
	stats     Stats
	// hint maps a page hash to the entry last seen holding such a page. It
	// is derived state — verified against valid/pages before use, never
	// checkpointed; a restored TLB scans once per page and refills it.
	hint [tlbHintSlots]uint16
}

// tlbHintSlots sizes the hint array (512 bytes a TLB): several times the
// pages eight contexts keep live between them, so slots rarely alias.
const tlbHintSlots = 256

// hintSlot hashes a page number onto the hint array (Fibonacci hashing:
// the contexts' address-space tags sit in the high bits, their page
// numbers differ in the low ones, and the multiply mixes both into the
// top byte).
func hintSlot(page uint64) uint64 { return page * 0x9E3779B97F4A7C15 >> 56 }

// NewTLB builds a TLB; the zero config panics (use DefaultConfig).
func NewTLB(cfg TLBConfig) *TLB {
	shift := uint(0)
	for 1<<shift < cfg.PageBytes {
		shift++
	}
	return &TLB{
		cfg:       cfg,
		pages:     make([]uint64, cfg.Entries),
		lru:       make([]uint32, cfg.Entries),
		valid:     make([]bool, cfg.Entries),
		ready:     make([]int64, cfg.Entries),
		pageShift: shift,
	}
}

// Lookup translates addr at cycle now. It returns the cycle the access
// proceeds at and whether it missed. A miss installs the page (the
// hardware walk always succeeds in this model), usable once the walk's
// fixed penalty has passed; a hit on an entry still being walked waits for
// that walk, as a merge onto an in-flight cache fill does.
//
// Consecutive accesses overwhelmingly hit the same page (every I-fetch of
// a straight-line run, every stride walk), so the most recent entry is
// probed first; several contexts alternating pages defeat that filter, so
// the hint array is probed next. Both are pure fast paths to the entry: a
// page lives in at most one entry, so stats and LRU updates are exactly
// what the full scan would have produced.
func (t *TLB) Lookup(now int64, addr int64) (ready int64, miss bool) {
	page := uint64(addr) >> t.pageShift
	t.stats.Accesses++
	t.lruTick++
	if l := t.last; t.valid[l] && t.pages[l] == page {
		t.lru[l] = t.lruTick
		return max(now, t.ready[l]), false
	}
	hint := &t.hint[hintSlot(page)]
	if i := int(*hint); i < len(t.pages) && t.valid[i] && t.pages[i] == page {
		t.lru[i] = t.lruTick
		t.last = i
		return max(now, t.ready[i]), false
	}
	// Hit scan: a bare tag-match walk. Victim selection is deferred to the
	// (rare) miss path so hits never pay for LRU bookkeeping.
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.lru[i] = t.lruTick
			t.last = i
			*hint = uint16(i)
			return max(now, t.ready[i]), false
		}
	}
	victim := 0
	for i := range t.pages {
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.stats.Misses++
	t.pages[victim] = page
	t.valid[victim] = true
	t.lru[victim] = t.lruTick
	t.ready[victim] = now + int64(t.cfg.MissPenalty)
	t.last = victim
	*hint = uint16(victim)
	return t.ready[victim], true
}
