// Package mem implements the simulated memory subsystem: the four-level
// cache hierarchy of Table 2 (32KB direct-mapped L1 instruction and data
// caches with 8 banks each, a 256KB 4-way L2, and a 2MB direct-mapped L3),
// the buses between levels, and the instruction/data TLBs.
//
// The paper stresses that it models "bandwidth limitations and access
// conflicts at multiple levels of the hierarchy"; this package does the
// same with a completion-time model: every access walks the hierarchy once,
// reserving bank, port, and bus occupancy as side effects and returning the
// cycle at which data is available. Caches are lockup-free: misses allocate
// MSHR entries and concurrent requests for the same line merge onto the
// in-flight fill.
package mem

import (
	"errors"
	"fmt"
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
	AccessEvery   int // min cycles between accesses (1 = one/cycle, 4 = L3's 1/4)
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

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
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

// line is one cache line's tag state.
type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint32
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

	bankLast    []int64    // last cycle each bank accepted an access
	nextAccess  int64      // port throttle (AccessEvery)
	fills       []interval // scheduled fill-occupancy windows
	lastFillEnd int64      // serializes overlapping fills

	mshr    []mshrEntry // in-flight line fills, at most MSHRs entries
	busNext int64       // bus to the next level: next free cycle
	stats   Stats
}

// mshrEntry records one in-flight line fill. The table is a flat slice —
// it holds at most cfg.MSHRs (8..16) entries, where a linear scan beats a
// map and, unlike map iteration, costs nothing to walk on the expiry
// check every access performs.
type mshrEntry struct {
	line uint64 // line address
	done int64  // fill completion cycle
}

// interval is a half-open busy window [start, end) over a set of banks.
type interval struct {
	start, end int64
	banks      uint32 // bitmask of occupied banks
}

// lineBanks returns the bank mask a fill occupies: the bank holding the
// line's critical (first) word. Fill writes stream across banks quickly, so
// reserving one bank for FillTime cycles approximates the disturbance
// without blocking the whole cache per fill.
func (c *cache) lineBanks(addr int64) uint32 {
	la := addr &^ int64(c.cfg.LineBytes-1)
	return 1 << uint(c.bank(la))
}

// fillBusyAt reports whether a fill occupies any bank in mask at cycle now,
// pruning expired windows.
func (c *cache) fillBusyAt(now int64, mask uint32) bool {
	keep := c.fills[:0]
	busy := false
	for _, iv := range c.fills {
		if iv.end > now {
			keep = append(keep, iv)
			if iv.start <= now && iv.banks&mask != 0 {
				busy = true
			}
		}
	}
	c.fills = keep
	return busy
}

// scheduleFill reserves the line's banks for a fill arriving at arrive,
// serializing with other pending fills, and returns the cycle the data is
// available.
func (c *cache) scheduleFill(arrive int64, addr int64) int64 {
	start := arrive
	if start < c.lastFillEnd {
		start = c.lastFillEnd
	}
	end := start + int64(c.cfg.FillTime)
	c.fills = append(c.fills, interval{start, end, c.lineBanks(addr)})
	c.lastFillEnd = end
	return start
}

func newCache(name string, cfg CacheConfig) *cache {
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	c := &cache{
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

// inflight returns the completion cycle of an in-flight fill covering addr,
// if one exists. Lines are installed in the tag array when the miss is
// issued, so this check must precede the tag probe for correct timing.
func (c *cache) inflight(now int64, addr int64) (done int64, ok bool) {
	c.expireMSHRs(now)
	return c.mshrLookup(c.lineAddr(addr))
}

// mshrLookup finds the in-flight fill for a line address, if any.
func (c *cache) mshrLookup(la uint64) (done int64, ok bool) {
	for i := range c.mshr {
		if c.mshr[i].line == la {
			return c.mshr[i].done, true
		}
	}
	return 0, false
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

func (c *cache) setTag(addr int64) (set int, tag uint64) {
	la := c.lineAddr(addr)
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

// install fills a line, evicting the LRU way; it returns whether the victim
// was dirty (requiring writeback traffic).
func (c *cache) install(addr int64, write bool) (evictedDirty bool) {
	set, tag := c.setTag(addr)
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

// expireMSHRs drops completed fills from the MSHR table. Survivor order is
// preserved, though nothing depends on it — lookups are by line address
// and expiry/wait scan the whole table.
func (c *cache) expireMSHRs(now int64) {
	keep := c.mshr[:0]
	for _, e := range c.mshr {
		if e.done > now {
			keep = append(keep, e)
		}
	}
	c.mshr = keep
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
	MemBusTime int  // bus cycles per line from memory (Table 2: 4)
	InfiniteBW bool // disable all bank/port/bus conflicts (Section 7 study)
	ITLB       TLBConfig
	DTLB       TLBConfig
}

// DefaultConfig returns the paper's Table 2 memory hierarchy.
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
		MemBusTime: 4,
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
	}
	if err := errors.Join(cycles("MemLatency", c.MemLatency, 1), cycles("MemBusTime", c.MemBusTime, 0)); err != nil {
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
}

// New builds a Hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	for l := Level(0); l < NumLevels; l++ {
		h.caches[l] = newCache(l.String(), cfg.Caches[l])
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

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

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
	l1 := h.caches[L1D]
	if !h.cfg.InfiniteBW {
		b := l1.bank(addr)
		if l1.fillBusyAt(now, 1<<uint(b)) || l1.bankLast[b] == now {
			return DataResult{Done: now + 1, BankConflict: true}
		}
		l1.bankLast[b] = now
	}
	res := DataResult{}
	t := now
	if !h.dtlb.Lookup(addr) {
		res.TLBMiss = true
		t += int64(h.cfg.DTLB.MissPenalty)
	}
	l1.stats.Accesses++
	if done, ok := l1.inflight(t, addr); ok {
		// Secondary miss: merge onto the in-flight fill.
		l1.stats.Merged++
		res.L1Miss = true
		if done < t {
			done = t
		}
		res.Done = done + 1
		return res
	}
	if l1.touch(addr, write) {
		res.Done = t + 1 // pipelined 1-cycle hit (Table 1: load hit = 1)
		return res
	}
	l1.stats.Misses++
	res.L1Miss = true
	res.Done = h.fill(L1D, t, addr, write) + 1
	return res
}

// InstrResult describes the outcome of one instruction-cache access.
type InstrResult struct {
	Done         int64 // cycle at which the line is available
	Miss         bool  // missed in the L1 instruction cache
	BankConflict bool  // bank busy (fill in progress)
	TLBMiss      bool
}

// AccessInstr fetches the line containing pc at cycle now. On a miss, Done
// reports when the fill completes (the thread stalls until then; the fill
// proceeds in the background — the cache is lockup-free).
func (h *Hierarchy) AccessInstr(now int64, pc int64) InstrResult {
	l1 := h.caches[L1I]
	res := InstrResult{}
	if !h.cfg.InfiniteBW && l1.fillBusyAt(now, 1<<uint(l1.bank(pc))) {
		return InstrResult{Done: now + 1, BankConflict: true}
	}
	t := now
	if !h.itlb.Lookup(pc) {
		res.TLBMiss = true
		t += int64(h.cfg.ITLB.MissPenalty)
	}
	l1.stats.Accesses++
	if done, ok := l1.inflight(t, pc); ok {
		l1.stats.Merged++
		res.Miss = true
		if done < t {
			done = t
		}
		res.Done = done
		return res
	}
	if l1.touch(pc, false) {
		res.Done = t
		return res
	}
	l1.stats.Misses++
	res.Miss = true
	res.Done = h.fill(L1I, t, pc, false)
	return res
}

// ProbeInstr reports whether pc hits in the L1 instruction cache without
// side effects — the ITAG early tag lookup of Section 5.3.
func (h *Hierarchy) ProbeInstr(pc int64) bool { return h.caches[L1I].probe(pc) }

// InstrBank returns the I-cache bank for pc, used by the fetch unit's
// bank-conflict logic when fetching from multiple threads.
func (h *Hierarchy) InstrBank(pc int64) int { return h.caches[L1I].bank(pc) }

// InstrBankBusy reports whether pc's I-cache bank is busy with a fill at
// cycle now (fetches "may conflict with other I cache activity (cache
// fills)").
func (h *Hierarchy) InstrBankBusy(now int64, pc int64) bool {
	c := h.caches[L1I]
	return !h.cfg.InfiniteBW && c.fillBusyAt(now, 1<<uint(c.bank(pc)))
}

// fill services a miss in cache l at time t and returns the cycle the line
// arrives. It recurses down the hierarchy, reserving port and bus occupancy
// unless InfiniteBW is set.
func (h *Hierarchy) fill(l Level, t int64, addr int64, write bool) int64 {
	c := h.caches[l]
	la := c.lineAddr(addr)
	c.expireMSHRs(t)
	if done, ok := c.mshrLookup(la); ok {
		// Merge with the in-flight fill for this line.
		if done > t {
			return done
		}
		return t
	}
	if len(c.mshr) >= c.cfg.MSHRs {
		// All MSHRs busy: the request queues until one frees.
		if w := c.mshrWait(); w > t {
			t = w
		}
		c.expireMSHRs(t)
	}

	// Request travels to the next level.
	reqArrive := t + int64(c.cfg.LatencyToNext)
	var dataReady int64
	if l == L3 {
		dataReady = h.memAccess(reqArrive)
	} else {
		dataReady = h.levelAccess(h.nextLevel(l), reqArrive, addr, write)
	}

	// Data returns over the bus into this cache, then the fill occupies it.
	if !h.cfg.InfiniteBW {
		if dataReady < c.busNext {
			dataReady = c.busNext
		}
		c.busNext = dataReady + int64(c.cfg.TransferTime)
	}
	arrive := dataReady + int64(c.cfg.TransferTime)
	if !h.cfg.InfiniteBW {
		arrive = c.scheduleFill(arrive, addr)
	}
	if c.install(addr, write && l == L1D) {
		// Dirty victim writeback consumes the outbound bus.
		if !h.cfg.InfiniteBW {
			c.busNext += int64(c.cfg.TransferTime)
		}
	}
	c.mshr = append(c.mshr, mshrEntry{line: la, done: arrive})
	return arrive
}

// levelAccess performs a (demand-fill) access at a lower-level cache and
// returns when its data is ready to send back up.
func (h *Hierarchy) levelAccess(l Level, t int64, addr int64, write bool) int64 {
	c := h.caches[l]
	if !h.cfg.InfiniteBW {
		// Port throttle: L2 takes one access per cycle, L3 one per four.
		if t < c.nextAccess {
			t = c.nextAccess
		}
		for c.fillBusyAt(t, c.lineBanks(addr)) {
			t++
		}
		c.nextAccess = t + int64(c.cfg.AccessEvery)
	}
	c.stats.Accesses++
	if done, ok := c.inflight(t, addr); ok {
		c.stats.Merged++
		if done < t {
			done = t
		}
		return done + 1
	}
	if c.touch(addr, false) {
		return t + 1
	}
	c.stats.Misses++
	return h.fill(l, t, addr, false)
}

// memAccess models main memory: fixed latency, bus modelled at the L3 fill.
func (h *Hierarchy) memAccess(t int64) int64 {
	return t + int64(h.cfg.MemLatency)
}

func (h *Hierarchy) nextLevel(l Level) Level {
	if l == L1I || l == L1D {
		return L2
	}
	return L3
}
