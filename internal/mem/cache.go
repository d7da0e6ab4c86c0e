// Package mem implements the simulated memory subsystem: the four-level
// cache hierarchy of Table 2 (32KB direct-mapped L1 instruction and data
// caches with 8 banks each, a 256KB 4-way L2, and a 2MB direct-mapped L3),
// the buses between levels, and the instruction/data TLBs.
//
// The paper stresses that it models "bandwidth limitations and access
// conflicts at multiple levels of the hierarchy"; this package does the
// same with a completion-time model: every access walks the hierarchy once,
// reserving bank, port, and bus occupancy as side effects and returning the
// cycle at which data is available. Each level's fill port and bus to the
// next level is a calendar of booked windows, kept in time order: a request
// takes the first gap at or after the cycle it needs the resource, so an
// L2 hit is not queued behind a memory miss booked ~300 cycles out. Each
// level's access port is a frontier, booked in request order. Section 7's
// infinite-bandwidth machine builds them all unlimited. One lookup serves every
// level: it merges onto the line's in-flight fill, hits in the tags, or
// misses and fills. Caches are lockup-free: misses allocate MSHR entries,
// concurrent requests for the same line merge onto the in-flight fill, and
// a line enters the tags when its fill lands, so a miss to the same set
// cannot evict a line that has not arrived yet.
package mem

import (
	"errors"
	"fmt"
	"slices"
)

// Level identifies a cache in the hierarchy.
type Level int

// Hierarchy levels.
const (
	L1I Level = iota
	L1D
	L2
	L3
	NumLevels
)

var levelNames = [...]string{"L1I", "L1D", "L2", "L3"}

// String returns the conventional level name.
func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// CacheConfig sizes one cache (one row of Table 2).
type CacheConfig struct {
	SizeBytes     int
	Assoc         int // 1 = direct mapped
	LineBytes     int
	Banks         int
	BankGranule   int // bytes per bank interleave unit
	AccessEvery   int // min cycles between L2/L3 accesses (4 = L3's 1/4); an L1's is 1
	TransferTime  int // bus cycles to move one line into this cache
	FillTime      int // cycles the cache is busy accepting a fill
	LatencyToNext int // one-way request latency to the next level
	MSHRs         int // outstanding misses supported
}

// Upper bounds on the fields that size an allocation here or, as
// latencies, the core's event ring. A configuration can arrive from the
// network, so each must be finite; they are generous multiples of Table 2,
// not policy.
const (
	maxLines  = 1 << 20 // lines in one cache (Table 2's L3 has 32768)
	maxMSHRs  = 1 << 10 // Table 2: 8..16
	maxTLB    = 1 << 12 // entries in one TLB (Table 2: 48 and 64)
	maxCycles = 1 << 16 // any single latency or occupancy (Table 2: <= 160)
)

// cycles reports a latency or occupancy outside lo..maxCycles.
func cycles(field string, v, lo int) error {
	if v < lo || v > maxCycles {
		return fmt.Errorf("mem: %s %d, want %d..%d", field, v, lo, maxCycles)
	}
	return nil
}

// Validate reports configuration errors.
func (c CacheConfig) Validate(name string) error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("mem: %s size %d not a positive power of two", name, c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: %s line %d not a positive power of two", name, c.LineBytes)
	case c.SizeBytes/c.LineBytes > maxLines:
		return fmt.Errorf("mem: %s SizeBytes %d is %d lines, want <= %d", name, c.SizeBytes, c.SizeBytes/c.LineBytes, maxLines)
	case c.Assoc < 1 || c.SizeBytes/c.LineBytes < c.Assoc:
		return fmt.Errorf("mem: %s assoc %d invalid", name, c.Assoc)
	case (c.SizeBytes/c.LineBytes/c.Assoc)&(c.SizeBytes/c.LineBytes/c.Assoc-1) != 0:
		return fmt.Errorf("mem: %s set count not a power of two", name)
	case c.Banks < 1 || c.Banks&(c.Banks-1) != 0:
		return fmt.Errorf("mem: %s banks %d not a power of two", name, c.Banks)
	case c.Banks > 32:
		// Bank sets are 32-bit masks here and in the fetch stage; a bank
		// past the 32nd would shift out of them and never conflict.
		return fmt.Errorf("mem: %s banks %d, want <= 32", name, c.Banks)
	case c.BankGranule <= 0 || c.BankGranule&(c.BankGranule-1) != 0:
		return fmt.Errorf("mem: %s bank granule %d invalid", name, c.BankGranule)
	case c.MSHRs < 1 || c.MSHRs > maxMSHRs:
		return fmt.Errorf("mem: %s MSHRs %d, want 1..%d", name, c.MSHRs, maxMSHRs)
	}
	return errors.Join(cycles(name+" AccessEvery", c.AccessEvery, 1), cycles(name+" TransferTime", c.TransferTime, 0),
		cycles(name+" FillTime", c.FillTime, 0), cycles(name+" LatencyToNext", c.LatencyToNext, 0))
}

// Stats counts accesses and misses for one cache. Misses counts line fills
// (primary misses); accesses that merge onto an in-flight fill of the same
// line are counted separately as Merged — they still stall the requester
// but cause no new memory traffic.
type Stats struct {
	Accesses int64
	Misses   int64
	Merged   int64
}

// Sub returns the counter-wise difference s - base: the statistics of the
// interval between two snapshots of the same cache. Every field of Stats
// must be subtracted here — streaming interval deltas flow through Sub, so
// a field this misses would silently report cumulative values per interval.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Accesses: s.Accesses - base.Accesses,
		Misses:   s.Misses - base.Misses,
		Merged:   s.Merged - base.Merged,
	}
}

// line is one cache line's tag state. Fields run widest first so a line
// packs into 16 bytes; the state walk names each field, so the order is
// not part of a checkpoint.
type line struct {
	tag   uint64
	lru   uint32
	valid bool
	dirty bool
}

// cache is one level of the hierarchy.
type cache struct {
	cfg     CacheConfig
	name    string
	sets    int
	lines   []line // sets * assoc
	lruTick uint32

	// Every geometry parameter is a validated power of two, so the
	// per-access address arithmetic runs on precomputed shifts and masks
	// instead of integer division (which dominates an access's cost
	// otherwise — lineAddr/setTag/bank run several times per reference).
	lineShift uint
	setMask   uint64
	setShift  uint
	bankShift uint
	bankMask  uint64

	bankLast []int64  // last cycle each bank accepted an access
	access   port     // port throttle (AccessEvery)
	fill     calendar // fill windows, each over the banks its line occupies
	bus      calendar // bus to the next level

	mshr  []mshrEntry // in-flight line fills, at most MSHRs entries
	stats Stats

	clock *int64 // the hierarchy's current cycle (Hierarchy.now)
}

// port is one occupancy frontier: a level's access port. Bookings are made
// in request order, so a request waits behind every booking made before it,
// even one for a later cycle. An unlimited port (Section 7's infinite
// bandwidth) books nothing and never delays.
type port struct {
	next      int64 // first cycle free after the last booking
	unlimited bool
}

// free returns the first cycle at or after t the port can start a booking.
func (p *port) free(t int64) int64 { return max(t, p.next) }

// book occupies the port for dur cycles from start.
func (p *port) book(start, dur int64) {
	if !p.unlimited {
		p.next = start + dur
	}
}

// calendar is a fill port or a bus: its booked windows, disjoint and sorted
// by start. reserve books the first gap at or after the requested cycle, so
// bookings are made in time order, not request order. A window is dropped
// (prune) once it ends at or before the hierarchy's current cycle; every
// later request is made at or after that cycle, so dropping it cannot
// change a booking. The live windows are bounded by the fills in flight,
// and the backing array is reused, so a warmed calendar never allocates.
// An unlimited calendar (Section 7's infinite bandwidth) books nothing and
// never delays.
type calendar struct {
	win       []interval
	unlimited bool
}

// interval is a half-open busy window [start, end) over a set of banks
// (bus windows occupy none).
type interval struct {
	start, end int64
	banks      uint32 // bitmask of occupied banks
}

// reserve books dur cycles over banks at the first gap at or after t and
// returns its start. A zero-length booking occupies nothing and starts at
// t.
func (c *calendar) reserve(t, dur int64, banks uint32) int64 {
	if c.unlimited || dur == 0 {
		return t
	}
	i := 0
	for ; i < len(c.win); i++ {
		w := &c.win[i]
		if w.end <= t {
			continue // over before the booking could start
		}
		if w.start >= t+dur {
			break // the gap before w holds it
		}
		t = w.end // overlaps: the next gap starts where w ends
	}
	c.win = slices.Insert(c.win, i, interval{t, t + dur, banks})
	return t
}

// busyAt reports whether a window covering cycle now occupies any bank in
// mask.
func (c *calendar) busyAt(now int64, mask uint32) bool {
	for i := range c.win {
		w := &c.win[i]
		if w.start > now {
			return false
		}
		if w.end > now && w.banks&mask != 0 {
			return true
		}
	}
	return false
}

// prune drops the windows that end at or before now. Windows are disjoint
// and sorted by start, so those are a prefix; the test of the first
// window inlines, since most cycles drop nothing.
func (c *calendar) prune(now int64) {
	if len(c.win) > 0 && c.win[0].end <= now {
		c.drop(now)
	}
}

func (c *calendar) drop(now int64) {
	k := 1
	for k < len(c.win) && c.win[k].end <= now {
		k++
	}
	c.win = c.win[:copy(c.win, c.win[k:])]
}

// mshrEntry records one in-flight line fill. The table is a flat slice —
// it holds at most cfg.MSHRs (8..16) entries, where a linear scan beats a
// map and, unlike map iteration, costs nothing to walk on the expiry
// check every access performs.
type mshrEntry struct {
	line  uint64 // line address
	done  int64  // fill completion cycle
	dirty bool   // a store missed: the line installs dirty
}

// lineBanks returns the bank mask a fill occupies: the bank holding the
// line's critical (first) word. Fill writes stream across banks quickly, so
// reserving one bank for FillTime cycles approximates the disturbance
// without blocking the whole cache per fill.
func (c *cache) lineBanks(addr int64) uint32 {
	la := addr &^ int64(c.cfg.LineBytes-1)
	return 1 << uint(c.bank(la))
}

// newCache builds one level reading the hierarchy's clock; under
// infiniteBW its ports are unlimited.
func newCache(name string, cfg CacheConfig, infiniteBW bool, clock *int64) *cache {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	// A calendar starts with room for a full MSHR table's fills and as
	// many writebacks.
	seed := 2 * cfg.MSHRs
	c := &cache{
		clock:     clock,
		access:    port{unlimited: infiniteBW},
		fill:      calendar{win: make([]interval, 0, seed), unlimited: infiniteBW},
		bus:       calendar{win: make([]interval, 0, seed), unlimited: infiniteBW},
		cfg:       cfg,
		name:      name,
		sets:      sets,
		lines:     make([]line, sets*cfg.Assoc),
		bankLast:  make([]int64, cfg.Banks),
		mshr:      make([]mshrEntry, 0, cfg.MSHRs),
		lineShift: log2(cfg.LineBytes),
		setMask:   uint64(sets) - 1,
		setShift:  log2(sets),
		bankShift: log2(cfg.BankGranule),
		bankMask:  uint64(cfg.Banks) - 1,
	}
	for i := range c.bankLast {
		c.bankLast[i] = -1 // "never used", distinct from cycle 0
	}
	return c
}

// inflight returns the MSHR entry of an in-flight fill covering addr, or
// nil, after installing the fills done by now. A line enters the tag array
// only when its fill lands, so this check must precede the tag probe for
// correct timing.
func (c *cache) inflight(now int64, addr int64) *mshrEntry {
	c.expireMSHRs(now)
	la := c.lineAddr(addr)
	for i := range c.mshr {
		if c.mshr[i].line == la {
			return &c.mshr[i]
		}
	}
	return nil
}

// log2 returns the exponent of a validated power of two.
func log2(v int) uint {
	s := uint(0)
	for 1<<s < v {
		s++
	}
	return s
}

func (c *cache) lineAddr(addr int64) uint64 { return uint64(addr) >> c.lineShift }

func (c *cache) setTag(addr int64) (set int, tag uint64) { return c.split(c.lineAddr(addr)) }

// split returns a line address's set and tag.
func (c *cache) split(la uint64) (set int, tag uint64) {
	return int(la & c.setMask), la >> c.setShift
}

// Bank returns the bank index addr maps to.
func (c *cache) bank(addr int64) int {
	return int(uint64(addr) >> c.bankShift & c.bankMask)
}

// probe checks the tags without side effects.
func (c *cache) probe(addr int64) bool {
	set, tag := c.setTag(addr)
	if c.cfg.Assoc == 1 {
		l := &c.lines[set]
		return l.valid && l.tag == tag
	}
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if l := &c.lines[base+w]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// touch updates LRU (and dirty) for a hit; returns false on miss. The
// direct-mapped fast path (all of Table 2's L1s and the L3) indexes the
// single candidate line without the way loop.
func (c *cache) touch(addr int64, write bool) bool {
	set, tag := c.setTag(addr)
	if c.cfg.Assoc == 1 {
		l := &c.lines[set]
		if l.valid && l.tag == tag {
			c.lruTick++
			l.lru = c.lruTick
			if write {
				l.dirty = true
			}
			return true
		}
		return false
	}
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			c.lruTick++
			l.lru = c.lruTick
			if write {
				l.dirty = true
			}
			return true
		}
	}
	return false
}

// install fills line address la, evicting the LRU way; it returns whether
// the victim was dirty (requiring writeback traffic).
func (c *cache) install(la uint64, write bool) (evictedDirty bool) {
	set, tag := c.split(la)
	base := set * c.cfg.Assoc
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	evictedDirty = c.lines[victim].valid && c.lines[victim].dirty
	c.lruTick++
	c.lines[victim] = line{valid: true, dirty: write, tag: tag, lru: c.lruTick}
	return evictedDirty
}

// expireMSHRs lands the fills done by now: each installs its line, in done
// order with table order breaking ties, and leaves the table. A dirty
// victim's writeback books the first bus gap at or after its eviction, or
// at or after the hierarchy's current cycle clock if the fill is landed
// later than that: no booking is made in the past. Survivor order is
// preserved, so table order stays request order.
func (c *cache) expireMSHRs(now int64) {
	for {
		first := -1
		for i, e := range c.mshr {
			if e.done <= now && (first < 0 || e.done < c.mshr[first].done) {
				first = i
			}
		}
		if first < 0 {
			return
		}
		e := c.mshr[first]
		c.mshr = append(c.mshr[:first], c.mshr[first+1:]...)
		if c.install(e.line, e.dirty) {
			c.bus.reserve(max(e.done, *c.clock), int64(c.cfg.TransferTime), 0)
		}
	}
}

// mshrWait returns the earliest cycle at which an MSHR entry frees, used
// when the table is full (the request queues until then).
func (c *cache) mshrWait() int64 {
	min := int64(-1)
	for _, e := range c.mshr {
		if min < 0 || e.done < min {
			min = e.done
		}
	}
	return min
}

// Config returns the hierarchy configuration (Table 2 defaults from
// DefaultConfig).
type Config struct {
	Caches     [NumLevels]CacheConfig
	MemLatency int  // one-way latency from L3 to memory (Table 2: 62)
	InfiniteBW bool // disable all bank/port/bus conflicts (Section 7 study)
	ITLB       TLBConfig
	DTLB       TLBConfig
}

// DefaultConfig returns the paper's Table 2 memory hierarchy. Table 2's
// memory bus (4 cycles a line) is the L3's TransferTime: the bus a line
// from memory crosses into the L3.
func DefaultConfig() Config {
	return Config{
		Caches: [NumLevels]CacheConfig{
			L1I: {SizeBytes: 32 << 10, Assoc: 1, LineBytes: 64, Banks: 8,
				BankGranule: 32, AccessEvery: 1, TransferTime: 1, FillTime: 2,
				LatencyToNext: 6, MSHRs: 8},
			L1D: {SizeBytes: 32 << 10, Assoc: 1, LineBytes: 64, Banks: 8,
				BankGranule: 8, AccessEvery: 1, TransferTime: 1, FillTime: 2,
				LatencyToNext: 6, MSHRs: 8},
			L2: {SizeBytes: 256 << 10, Assoc: 4, LineBytes: 64, Banks: 8,
				BankGranule: 64, AccessEvery: 1, TransferTime: 1, FillTime: 2,
				LatencyToNext: 12, MSHRs: 16},
			L3: {SizeBytes: 2 << 20, Assoc: 1, LineBytes: 64, Banks: 1,
				BankGranule: 64, AccessEvery: 4, TransferTime: 4, FillTime: 8,
				LatencyToNext: 62, MSHRs: 16},
		},
		MemLatency: 62,
		ITLB:       TLBConfig{Entries: 48, PageBytes: 8 << 10, MissPenalty: 160},
		DTLB:       TLBConfig{Entries: 64, PageBytes: 8 << 10, MissPenalty: 160},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for l := Level(0); l < NumLevels; l++ {
		if err := c.Caches[l].Validate(l.String()); err != nil {
			return err
		}
		// An L1 arbitrates per bank; only L2 and L3 accesses pass the port
		// throttle, so another L1 value would re-address the same machine.
		if l <= L1D && c.Caches[l].AccessEvery != 1 {
			return fmt.Errorf("mem: %s AccessEvery %d, want 1", l, c.Caches[l].AccessEvery)
		}
	}
	if err := cycles("MemLatency", c.MemLatency, 1); err != nil {
		return err
	}
	if err := c.ITLB.Validate("ITLB"); err != nil {
		return err
	}
	return c.DTLB.Validate("DTLB")
}

// Hierarchy is the full simulated memory system.
type Hierarchy struct {
	cfg    Config
	caches [NumLevels]*cache
	itlb   *TLB
	dtlb   *TLB
	// now is the current cycle: the latest passed to AccessData or
	// AccessInstr. Callers never pass an earlier one, so every booking is
	// made at or after it, and the calendars drop the windows over by then.
	now int64
}

// New builds a Hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	for l := Level(0); l < NumLevels; l++ {
		h.caches[l] = newCache(l.String(), cfg.Caches[l], cfg.InfiniteBW, &h.now)
	}
	h.itlb = NewTLB(cfg.ITLB)
	h.dtlb = NewTLB(cfg.DTLB)
	return h, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// CacheStats returns access/miss counts for a level.
func (h *Hierarchy) CacheStats(l Level) Stats { return h.caches[l].stats }

// ResetStats zeroes all cache and TLB counters without disturbing cache
// contents or timing state (used to exclude warmup from measurements).
func (h *Hierarchy) ResetStats() {
	for _, c := range h.caches {
		c.stats = Stats{}
	}
	h.itlb.stats = Stats{}
	h.dtlb.stats = Stats{}
}

// DataResult describes the outcome of one data-cache access.
type DataResult struct {
	Done         int64 // cycle at which the data is available to dependents
	L1Miss       bool  // missed in the L1 data cache
	BankConflict bool  // lost L1 bank arbitration this cycle (retry next cycle)
	TLBMiss      bool  // DTLB miss (penalty included in Done)
}

// AccessData performs a load or store at cycle now. Bank conflicts are
// reported without performing the access; the caller retries next cycle
// (that is the paper's optimistic-issue squash trigger, together with L1
// misses).
func (h *Hierarchy) AccessData(now int64, addr int64, write bool) DataResult {
	h.advance(now)
	l1 := h.caches[L1D]
	if !h.cfg.InfiniteBW {
		b := l1.bank(addr)
		if l1.fill.busyAt(now, 1<<uint(b)) || l1.bankLast[b] == now {
			return DataResult{Done: now + 1, BankConflict: true}
		}
		l1.bankLast[b] = now
	}
	t, tlbMiss := h.dtlb.Lookup(now, addr)
	done, how := h.lookup(L1D, t, addr, write)
	// Every outcome adds the pipelined 1-cycle hit (Table 1: load hit = 1).
	return DataResult{Done: done + 1, L1Miss: how != hit, TLBMiss: tlbMiss}
}

// InstrResult describes the outcome of one instruction-cache access.
type InstrResult struct {
	Done    int64 // cycle at which the line is available
	Miss    bool  // missed in the L1 instruction cache
	TLBMiss bool
}

// AccessInstr fetches the line containing pc at cycle now. On a miss, Done
// reports when the fill completes (the thread stalls until then; the fill
// proceeds in the background — the cache is lockup-free). The caller
// arbitrates the bank first: see InstrBankBusy.
func (h *Hierarchy) AccessInstr(now int64, pc int64) InstrResult {
	h.advance(now)
	t, tlbMiss := h.itlb.Lookup(now, pc)
	done, how := h.lookup(L1I, t, pc, false)
	return InstrResult{Done: done, Miss: how != hit, TLBMiss: tlbMiss}
}

// ProbeInstr reports whether pc hits in the L1 instruction cache at cycle
// now — the ITAG early tag lookup of Section 5.3. Its one side effect is
// landing the fills done by now, so a line that has arrived probes as a
// hit; it counts no access.
func (h *Hierarchy) ProbeInstr(now int64, pc int64) bool {
	c := h.caches[L1I]
	c.expireMSHRs(now)
	return c.probe(pc)
}

// InstrBank returns the I-cache bank for pc, used by the fetch unit's
// bank-conflict logic when fetching from multiple threads.
func (h *Hierarchy) InstrBank(pc int64) int { return h.caches[L1I].bank(pc) }

// InstrBankBusy reports whether pc's I-cache bank is busy with a fill at
// cycle now (fetches "may conflict with other I cache activity (cache
// fills)").
func (h *Hierarchy) InstrBankBusy(now int64, pc int64) bool {
	c := h.caches[L1I]
	return c.fill.busyAt(now, 1<<uint(c.bank(pc)))
}

// advance moves the current cycle to now, if it is later, and drops the
// windows over by then from every calendar.
func (h *Hierarchy) advance(now int64) {
	if now <= h.now {
		return
	}
	h.now = now
	for _, c := range h.caches {
		c.fill.prune(now)
		c.bus.prune(now)
	}
}

// outcome is what one lookup did.
type outcome uint8

const (
	hit    outcome = iota // the tags held the line
	merged                // the line's fill was in flight
	filled                // the access missed and started a fill
)

// lookup performs one access to level l at cycle t: it merges onto the
// line's in-flight fill, hits in the tags, or misses and fills. It returns
// the cycle the line is present at this level (t itself on a hit) and
// which of the three happened; each caller adds its own access latency.
// write marks the line dirty: only an L1D store sets it.
func (h *Hierarchy) lookup(l Level, t int64, addr int64, write bool) (int64, outcome) {
	c := h.caches[l]
	c.stats.Accesses++
	if e := c.inflight(t, addr); e != nil {
		// Secondary miss: it stalls with the fill but adds no traffic. A
		// store merging onto it dirties the line the fill installs.
		c.stats.Merged++
		e.dirty = e.dirty || write
		return max(e.done, t), merged
	}
	if c.touch(addr, write) {
		return t, hit
	}
	c.stats.Misses++
	return h.fill(l, t, addr, write), filled
}

// fill services a miss in cache l at time t, which lookup has just found
// in neither the MSHRs nor the tags, and returns the cycle the line
// arrives. It recurses down the hierarchy, booking the bus and fill port,
// and leaves the line in an MSHR entry: the tags take it when it lands.
func (h *Hierarchy) fill(l Level, t int64, addr int64, write bool) int64 {
	c := h.caches[l]
	if len(c.mshr) >= c.cfg.MSHRs {
		// All MSHRs busy: the request queues until one frees.
		t = max(t, c.mshrWait())
		c.expireMSHRs(t)
	}

	// Request travels to the next level (both L1s sit on the L2); main
	// memory is a fixed latency behind the L3, its bus the L3's.
	reqArrive := t + int64(c.cfg.LatencyToNext)
	dataReady := reqArrive + int64(h.cfg.MemLatency)
	if l != L3 {
		dataReady = h.levelAccess(max(l+1, L2), reqArrive, addr)
	}

	// Data returns over the bus into this cache, then the fill occupies
	// the fill port and the line's banks.
	xfer := int64(c.cfg.TransferTime)
	arrive := c.fill.reserve(c.bus.reserve(dataReady, xfer, 0)+xfer, int64(c.cfg.FillTime), c.lineBanks(addr))
	c.mshr = append(c.mshr, mshrEntry{line: c.lineAddr(addr), done: arrive, dirty: write})
	return arrive
}

// levelAccess performs a (demand-fill) access at a lower-level cache and
// returns when its data is ready to send back up: one cycle after a hit or
// a merge, the fill's arrival after a miss.
func (h *Hierarchy) levelAccess(l Level, t int64, addr int64) int64 {
	c := h.caches[l]
	// Port throttle: L2 takes one access per cycle, L3 one per four, and
	// none while a fill holds the line's banks.
	t = c.access.free(t)
	for c.fill.busyAt(t, c.lineBanks(addr)) {
		t++
	}
	c.access.book(t, int64(c.cfg.AccessEvery))
	done, how := h.lookup(l, t, addr, false)
	if how == filled {
		return done
	}
	return done + 1
}
