package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/state"
)

func TestDefaultConfigMatchesTable2(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"L1I size", c.Caches[L1I].SizeBytes, 32 << 10},
		{"L1D size", c.Caches[L1D].SizeBytes, 32 << 10},
		{"L2 size", c.Caches[L2].SizeBytes, 256 << 10},
		{"L3 size", c.Caches[L3].SizeBytes, 2 << 20},
		{"L1I assoc", c.Caches[L1I].Assoc, 1},
		{"L2 assoc", c.Caches[L2].Assoc, 4},
		{"L3 assoc", c.Caches[L3].Assoc, 1},
		{"L1I banks", c.Caches[L1I].Banks, 8},
		{"L1D banks", c.Caches[L1D].Banks, 8},
		{"L2 banks", c.Caches[L2].Banks, 8},
		{"L3 banks", c.Caches[L3].Banks, 1},
		{"line", c.Caches[L1I].LineBytes, 64},
		{"L1 latency to next", c.Caches[L1D].LatencyToNext, 6},
		{"L2 latency to next", c.Caches[L2].LatencyToNext, 12},
		{"L3 latency to next", c.Caches[L3].LatencyToNext, 62},
		{"L1 fill", c.Caches[L1D].FillTime, 2},
		{"L3 fill", c.Caches[L3].FillTime, 8},
		{"L3 access every", c.Caches[L3].AccessEvery, 4},
		{"ITLB entries", c.ITLB.Entries, 48},
		{"DTLB entries", c.DTLB.Entries, 64},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	c := DefaultConfig()
	c.Caches[L2].SizeBytes = 3000
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	c = DefaultConfig()
	c.Caches[L1D].Banks = 3
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two banks accepted")
	}
	c.Caches[L1D].Banks = 32
	if err := c.Validate(); err != nil {
		t.Errorf("32 banks rejected: %v", err)
	}
	c.Caches[L1D].Banks = 64
	if err := c.Validate(); err == nil {
		t.Error("64 banks accepted: bank sets are 32-bit masks")
	}
	c = DefaultConfig()
	c.ITLB.Entries = 0
	if err := c.Validate(); err == nil {
		t.Error("zero TLB entries accepted")
	}
}

// warm performs an access and waits long enough for its fill to land.
func warm(h *Hierarchy, now int64, addr int64) int64 {
	r := h.AccessData(now, addr, false)
	for r.BankConflict {
		now++
		r = h.AccessData(now, addr, false)
	}
	return r.Done + 1
}

func TestDataHitAfterFill(t *testing.T) {
	h := MustNew(DefaultConfig())
	now := warm(h, 0, 0x10000)
	r := h.AccessData(now+10, 0x10000, false)
	if r.L1Miss {
		t.Fatal("second access to same line missed")
	}
	if r.Done != now+10+1 {
		t.Fatalf("hit latency = %d cycles, want 1", r.Done-(now+10))
	}
}

func TestMissLatencyOrdering(t *testing.T) {
	h := MustNew(DefaultConfig())
	// Cold miss goes all the way to memory: latency must exceed the sum of
	// the per-level one-way latencies (6+12+62) and be below a loose bound.
	r := h.AccessData(1000, 0x777000, false)
	if r.BankConflict {
		t.Fatal("unexpected bank conflict on idle cache")
	}
	if !r.L1Miss {
		t.Fatal("cold access must miss")
	}
	lat := r.Done - 1000
	// The TLB miss penalty (160) is also charged on a cold access.
	if lat < 80+160 || lat > 400 {
		t.Fatalf("cold miss latency = %d, want ~[240,400]", lat)
	}
}

func TestL2HitFasterThanL3Hit(t *testing.T) {
	h := MustNew(DefaultConfig())
	now := warm(h, 0, 0x40000)
	// Evict from L1D only: a conflicting L1 line (same L1 set, different L2 set).
	l1size := int64(DefaultConfig().Caches[L1D].SizeBytes)
	now = warm(h, now, 0x40000+l1size)
	now += 500
	r := h.AccessData(now, 0x40000, false)
	if !r.L1Miss {
		t.Fatal("expected L1 miss after eviction")
	}
	l2lat := r.Done - now
	if l2lat < 7 || l2lat > 40 {
		t.Fatalf("L1-miss/L2-hit latency = %d, want ~[7,40]", l2lat)
	}
}

func TestBankConflictSameCycle(t *testing.T) {
	h := MustNew(DefaultConfig())
	// Line-interleaved D-banks: 0x20000 and 0x20200 are 8 lines apart, so
	// they share a bank but live in different sets (no eviction).
	now := warm(h, 0, 0x20000)
	now = warm(h, now, 0x20200)
	now += 50 // past any fill occupancy
	r1 := h.AccessData(now, 0x20000, false)
	r2 := h.AccessData(now, 0x20200, false)
	if r1.BankConflict || r1.L1Miss {
		t.Fatalf("first access should hit cleanly: %+v", r1)
	}
	if !r2.BankConflict {
		t.Fatal("second same-bank access same cycle should conflict")
	}
	// Different bank (adjacent word of the same line) same cycle is fine:
	// the D-cache interleaves its eight banks at word granularity.
	now += 10
	r3 := h.AccessData(now, 0x20000, false)
	r4 := h.AccessData(now, 0x20008, false)
	if r3.BankConflict || r4.BankConflict {
		t.Fatal("different-bank accesses should not conflict")
	}
}

func TestInfiniteBWDisablesConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InfiniteBW = true
	h := MustNew(cfg)
	now := warm(h, 0, 0x20000)
	now = warm(h, now, 0x30000)
	for i := 0; i < 8; i++ {
		if r := h.AccessData(now, 0x20000, false); r.BankConflict {
			t.Fatal("bank conflict under InfiniteBW")
		}
	}
}

// TestMSHRMerging: two misses to the same line must complete together and
// count as one L2 access stream (no duplicated fill).
func TestMSHRMerging(t *testing.T) {
	h := MustNew(DefaultConfig())
	r1 := h.AccessData(100, 0x50000, false)
	r2 := h.AccessData(101, 0x50008, false) // same line, different bank
	if !r1.L1Miss || !r2.L1Miss {
		t.Fatal("both should miss")
	}
	if r2.Done > r1.Done+2 {
		t.Fatalf("merged miss finished at %d, primary at %d", r2.Done, r1.Done)
	}
}

func TestDirectMappedConflictEviction(t *testing.T) {
	h := MustNew(DefaultConfig())
	a := int64(0x10000)
	b := a + int64(DefaultConfig().Caches[L1D].SizeBytes) // same L1 set
	now := warm(h, 0, a)
	now = warm(h, now, b)
	now += 100
	r := h.AccessData(now, a, false)
	if !r.L1Miss {
		t.Fatal("direct-mapped L1 should have evicted the first line")
	}
}

func TestAssociativeL2KeepsConflictingLines(t *testing.T) {
	h := MustNew(DefaultConfig())
	a := int64(0x10000)
	b := a + int64(DefaultConfig().Caches[L1D].SizeBytes)
	now := warm(h, 0, a)
	now = warm(h, now, b)
	now += 200
	// a misses in L1 but must still hit in the 4-way L2.
	l2Before := h.CacheStats(L2)
	r := h.AccessData(now, a, false)
	if !r.L1Miss {
		t.Fatal("setup: expected L1 miss")
	}
	l2After := h.CacheStats(L2)
	if l2After.Misses != l2Before.Misses {
		t.Fatal("L2 missed on a line it should retain (4-way)")
	}
}

func TestInstrFetchHitAndMiss(t *testing.T) {
	h := MustNew(DefaultConfig())
	r := h.AccessInstr(50, 0x4000)
	if !r.Miss {
		t.Fatal("cold I-fetch should miss")
	}
	r2 := h.AccessInstr(r.Done+5, 0x4000)
	if r2.Miss {
		t.Fatal("warm I-fetch should hit")
	}
	if r2.Done != r.Done+5 {
		t.Fatalf("I-hit should complete same cycle, got +%d", r2.Done-(r.Done+5))
	}
}

func TestInstrBankMapping(t *testing.T) {
	h := MustNew(DefaultConfig())
	// 32-byte granule, 8 banks: PCs 32 bytes apart land in adjacent banks.
	b0 := h.InstrBank(0x8000)
	b1 := h.InstrBank(0x8020)
	if b0 == b1 {
		t.Fatal("adjacent 32B blocks share a bank")
	}
	if h.InstrBank(0x8000) != h.InstrBank(0x8000+32*8) {
		t.Fatal("banks should wrap every banks*granule bytes")
	}
}

func TestTLBMissPenaltyCharged(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNew(cfg)
	r := h.AccessData(0, 0x90000, false)
	if !r.TLBMiss {
		t.Fatal("cold access should miss DTLB")
	}
	// Same page again: no TLB penalty.
	r2 := h.AccessData(r.Done+2, 0x90008, false)
	if r2.TLBMiss {
		t.Fatal("warm page should hit DTLB")
	}
}

func TestTLBLRUCapacity(t *testing.T) {
	cfg := TLBConfig{Entries: 4, PageBytes: 8 << 10, MissPenalty: 10}
	tlb := NewTLB(cfg)
	pages := []int64{0, 1, 2, 3}
	for _, p := range pages {
		tlb.Lookup(p * 8 << 10)
	}
	for _, p := range pages {
		if !tlb.Lookup(p * 8 << 10) {
			t.Fatalf("page %d evicted within capacity", p)
		}
	}
	tlb.Lookup(4 * 8 << 10) // evicts LRU = page 0
	if tlb.Lookup(0) {
		t.Fatal("LRU page survived over-capacity insert")
	}
	if !tlb.Lookup(4 * 8 << 10) {
		t.Fatal("newest page missing")
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := MustNew(DefaultConfig())
	warm(h, 0, 0x1000)
	s := h.CacheStats(L1D)
	if s.Accesses == 0 || s.Misses == 0 {
		t.Fatalf("stats not counted: %+v", s)
	}
	if s.MissRate() <= 0 || s.MissRate() > 1 {
		t.Fatalf("miss rate %v out of range", s.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("idle miss rate should be 0")
	}
}

// Property: Done never precedes the request cycle, for arbitrary addresses
// and interleavings.
func TestMonotoneCompletionProperty(t *testing.T) {
	h := MustNew(DefaultConfig())
	now := int64(0)
	f := func(addrRaw uint32, write bool, gap uint8) bool {
		now += int64(gap)
		addr := int64(addrRaw) &^ 7
		r := h.AccessData(now, addr, write)
		return r.Done >= now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated access to one line converges to hits (the line sticks).
func TestLineStickinessProperty(t *testing.T) {
	h := MustNew(DefaultConfig())
	now := warm(h, 0, 0xABC0)
	for i := 0; i < 50; i++ {
		r := h.AccessData(now, 0xABC0, false)
		if r.BankConflict {
			now++
			continue
		}
		if r.L1Miss {
			t.Fatal("line evicted without competing traffic")
		}
		now = r.Done + 1
	}
}

// An L1D miss holds an MSHR from the access until its fill is done.
func TestOutstandingDataMisses(t *testing.T) {
	h := MustNew(DefaultConfig())
	outstanding := func(now int64) int {
		c := h.caches[L1D]
		c.expireMSHRs(now)
		return len(c.mshr)
	}
	if n := outstanding(0); n != 0 {
		t.Fatalf("idle outstanding misses = %d", n)
	}
	r := h.AccessData(0, 0x123000, false)
	if n := outstanding(1); n == 0 {
		t.Fatal("in-flight miss not visible")
	}
	if n := outstanding(r.Done + 1); n != 0 {
		t.Fatalf("finished miss still outstanding: %d", n)
	}
}

// The hierarchy walk restores exactly what it saved, and refuses another
// geometry, an MSHR table over capacity, a TLB MRU index outside the TLB,
// and a timing cursor past the reader's horizon (it would become an event
// time in the core).
func TestStateWalk(t *testing.T) {
	save := func(h *Hierarchy) []byte {
		c := state.NewWriter(1)
		h.State(c)
		data, err := c.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	restore := func(cfg Config, data []byte) (*Hierarchy, error) {
		h, c := MustNew(cfg), state.NewReader(data, 1)
		c.SetMaxCycle(100_000)
		h.State(c)
		return h, c.Close()
	}
	warm := func() *Hierarchy {
		h := MustNew(DefaultConfig())
		for i := int64(0); i < 400; i++ {
			h.AccessData(i, 0x10000+i*264, i%3 == 0)
			h.AccessInstr(i, 0x400000+i*32)
		}
		return h
	}

	data := save(warm())
	h, err := restore(DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	if string(save(h)) != string(data) {
		t.Fatal("save -> restore -> save changed the bytes")
	}
	want, got := warm(), h
	for i := int64(400); i < 600; i++ {
		if a, b := want.AccessData(i, 0x10000+i*72, false), got.AccessData(i, 0x10000+i*72, false); a != b {
			t.Fatalf("cycle %d: restored hierarchy answered %+v, original %+v", i, b, a)
		}
	}

	other := DefaultConfig()
	other.Caches[L2].SizeBytes *= 2
	if _, err := restore(other, data); err == nil {
		t.Error("state restored onto a different geometry")
	}
	for name, corrupt := range map[string]func(h *Hierarchy){
		"MSHRs over capacity":            func(h *Hierarchy) { h.caches[L1D].mshr = make([]mshrEntry, h.cfg.Caches[L1D].MSHRs+1) },
		"TLB MRU out of range":           func(h *Hierarchy) { h.dtlb.last = len(h.dtlb.pages) },
		"bus busy until the far future":  func(h *Hierarchy) { h.caches[L2].busNext = 1 << 40 },
		"fill landing in the far future": func(h *Hierarchy) { h.caches[L3].mshr = []mshrEntry{{line: 1, done: 1 << 40}} },
	} {
		bad := warm()
		corrupt(bad)
		if _, err := restore(DefaultConfig(), save(bad)); err == nil {
			t.Errorf("%s: restore accepted it", name)
		}
	}
}
