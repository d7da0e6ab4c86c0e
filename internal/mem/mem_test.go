package mem

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
	// Only L2 and L3 accesses pass a port throttle: an L1's AccessEvery
	// is never read, so any value but 1 would be a second address for the
	// same machine.
	for _, l := range []Level{L1I, L1D} {
		c = DefaultConfig()
		c.Caches[l].AccessEvery = 4
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "AccessEvery") {
			t.Errorf("%s AccessEvery 4: got %v, want an error naming AccessEvery", l, err)
		}
	}
	c = DefaultConfig()
	c.Caches[L2].AccessEvery = 4
	if err := c.Validate(); err != nil {
		t.Errorf("L2 AccessEvery 4 rejected: %v", err)
	}
}

// An access port is a frontier: a booking starts no earlier than the end
// of the last one, whatever cycle it was made for, and an unlimited port
// never books.
func TestPort(t *testing.T) {
	p := port{next: 20}
	if p.free(25) != 25 || p.free(15) != 20 {
		t.Fatalf("free around next 20: free(25) = %d, free(15) = %d", p.free(25), p.free(15))
	}
	p.book(22, 3)
	if p.next != 25 {
		t.Fatalf("book(22, 3): next %d, want 25", p.next)
	}
	u := port{unlimited: true}
	u.book(100, 50)
	if u.next != 0 || u.free(7) != 7 {
		t.Fatalf("unlimited port booked up to %d", u.next)
	}
}

// A calendar books the first gap at or after the requested cycle: a
// request made later for an earlier cycle takes a gap before the bookings
// already made, a request that fits no gap goes past the window it meets,
// and a zero-length request occupies nothing. busyAt sees a window's banks
// over [start, end), prune drops the windows over by its cycle, and an
// unlimited calendar never books.
func TestCalendar(t *testing.T) {
	var c calendar
	for _, step := range []struct {
		t, dur int64
		banks  uint32
		want   int64
	}{
		{10, 4, 1, 10},
		{5, 4, 2, 5},  // made later for an earlier cycle: the gap before [10,14)
		{8, 4, 1, 14}, // overlaps [5,9), then [10,14): past both
		{30, 1, 4, 30},
		{31, 0, 4, 31}, // zero-length: nothing booked
		{0, 5, 8, 0},   // fits exactly before [5,9)
		{9, 1, 8, 9},   // fits exactly in [9,10)
		{18, 2, 1, 18}, // adjoins [14,18)
	} {
		if got := c.reserve(step.t, step.dur, step.banks); got != step.want {
			t.Fatalf("reserve(%d, %d) = %d, want %d", step.t, step.dur, got, step.want)
		}
	}
	want := []interval{{0, 5, 8}, {5, 9, 2}, {9, 10, 8}, {10, 14, 1}, {14, 18, 1}, {18, 20, 1}, {30, 31, 4}}
	if !slices.Equal(c.win, want) {
		t.Fatalf("windows %v, want %v", c.win, want)
	}
	for _, q := range []struct {
		at   int64
		mask uint32
		want bool
	}{{4, 8, true}, {5, 8, false}, {5, 2, true}, {9, 8, true}, {13, 1, true}, {14, 2, false}, {20, 1, false}, {30, 4, true}, {31, 4, false}} {
		if got := c.busyAt(q.at, q.mask); got != q.want {
			t.Errorf("busyAt(%d, %b) = %v, want %v", q.at, q.mask, got, q.want)
		}
	}
	c.prune(14)
	if want := want[4:]; !slices.Equal(c.win, want) {
		t.Fatalf("after prune(14): windows %v, want %v", c.win, want)
	}

	u := calendar{unlimited: true}
	for _, at := range []int64{0, 7, 200} {
		if got := u.reserve(at, 9, 1); got != at || u.busyAt(at, 1) {
			t.Fatalf("unlimited calendar delayed a request at %d to %d", at, got)
		}
	}
	if len(u.win) != 0 {
		t.Fatalf("unlimited calendar booked %v", u.win)
	}
}

// TestBusBooksInTimeOrder: an L1D miss that hits in L2 is back in 9
// cycles on its own, and still in 9 when issued one cycle after a miss to
// memory. That miss has booked the L1D bus and fill port for its data ~300
// cycles out; the L2 hit takes the gap before those bookings instead of
// queueing behind them. (Both pages are in the DTLB: a walk would hold the
// miss's L2 access, and with it the L2's request-order access port.)
func TestBusBooksInTimeOrder(t *testing.T) {
	const near, far = int64(0x10040), int64(0x7000000)
	l2Hit := func(h *Hierarchy) int64 {
		// Evict near from the direct-mapped L1D; the 4-way L2 keeps it.
		now := warm(h, 0, near)
		now = warm(h, now, near+int64(h.cfg.Caches[L1D].SizeBytes))
		now = warm(h, now, far+0x1000) // far's page, not its line
		return now + 500
	}

	h := MustNew(DefaultConfig())
	now := l2Hit(h)
	alone := h.AccessData(now, near, false)
	if !alone.L1Miss || alone.TLBMiss || alone.Done-now != 9 {
		t.Fatalf("L2 hit alone: %+v at %d, want an L1 miss done in 9 cycles", alone, now)
	}

	h = MustNew(DefaultConfig())
	now = l2Hit(h)
	first := h.AccessData(now, far, false)
	behind := h.AccessData(now+1, near, false)
	if l2 := h.CacheStats(L2); l2.Misses != 4 || first.TLBMiss || behind.TLBMiss {
		t.Fatalf("setup: L2 misses %d, want 4 (three warm lines and the far one); TLB misses %v %v", l2.Misses, first.TLBMiss, behind.TLBMiss)
	}
	if behind.Done-(now+1) != 9 || behind.Done >= first.Done {
		t.Fatalf("L2 hit behind a memory miss done in %d cycles (miss at +%d), want 9, before the miss",
			behind.Done-(now+1), first.Done-now)
	}
}

// TestL2HitQueuesBehindAWalkingMiss pins what TestBusBooksInTimeOrder
// avoids by warming far's page: when the memory miss walks the DTLB first,
// it reaches the L2 160 cycles later and books the L2 access port there,
// and the access port is still a request-order frontier, so the L2 hit
// issued one cycle later queues behind it: 169 cycles instead of 9.
// ROADMAP 13(b) decides the access port's rule; this assertion flips when
// the port books in time order.
func TestL2HitQueuesBehindAWalkingMiss(t *testing.T) {
	const near, far = int64(0x10040), int64(0x7000000)
	h := MustNew(DefaultConfig())
	now := warm(h, 0, near)
	now = warm(h, now, near+int64(h.cfg.Caches[L1D].SizeBytes))
	now += 500
	first := h.AccessData(now, far, false)
	behind := h.AccessData(now+1, near, false)
	if !first.TLBMiss || behind.TLBMiss || !behind.L1Miss {
		t.Fatalf("setup: miss %+v, hit %+v; want a DTLB walk ahead of an L1 miss with its page mapped", first, behind)
	}
	if got := behind.Done - (now + 1); got != 169 {
		t.Fatalf("L2 hit behind a walking memory miss done in %d cycles, want 169 (the access port's frontier)", got)
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

// Under InfiniteBW every port is unlimited: there are no bank conflicts,
// and a burst of misses to distinct lines records no fill window, books no
// port, and each miss completes at the latency it has alone on an idle
// hierarchy.
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

	const page = int64(0x7000000)
	lines := int64(DefaultConfig().Caches[L1D].MSHRs) // no MSHR queueing
	// Warm the DTLB with the page's last line, so the burst misses only in
	// the caches.
	setup := func(cfg Config) (*Hierarchy, int64) {
		h := MustNew(cfg)
		return h, warm(h, 0, page+8<<10-64) + 1000
	}
	alone := make([]int64, lines)
	for i := range alone {
		h, now := setup(DefaultConfig())
		alone[i] = h.AccessData(now, page+int64(i)*64, false).Done - now
	}

	h, now = setup(cfg)
	for i := range alone {
		r := h.AccessData(now, page+int64(i)*64, false)
		if r.BankConflict || !r.L1Miss || r.Done-now != alone[i] {
			t.Errorf("line %d: %+v, want a miss done in %d cycles as alone", i, r, alone[i])
		}
	}
	for l, c := range h.caches {
		if len(c.fill.win) != 0 || len(c.bus.win) != 0 || c.access.next != 0 {
			t.Errorf("%s: %d fill windows, %d bus windows, access port next %d; want none booked",
				Level(l), len(c.fill.win), len(c.bus.win), c.access.next)
		}
	}

	// The same burst on the finite hierarchy queues on the buses.
	h, now = setup(DefaultConfig())
	last := h.AccessData(now, page, false).Done
	for i := int64(1); i < lines; i++ {
		last = h.AccessData(now+i, page+i*64, false).Done
	}
	if last-now <= alone[lines-1] {
		t.Errorf("finite hierarchy: last of the burst done in %d cycles, want more than %d alone", last-now, alone[lines-1])
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
	hit := func(addr int64) bool { _, miss := tlb.Lookup(0, addr); return !miss }
	for _, p := range pages {
		hit(p * 8 << 10)
	}
	for _, p := range pages {
		if !hit(p * 8 << 10) {
			t.Fatalf("page %d evicted within capacity", p)
		}
	}
	hit(4 * 8 << 10) // evicts LRU = page 0
	if hit(0) {
		t.Fatal("LRU page survived over-capacity insert")
	}
	if !hit(4 * 8 << 10) {
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
	if s.Misses > s.Accesses {
		t.Fatalf("more misses than accesses: %+v", s)
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

	// The checkpoint is taken with bookings in flight: calendar windows,
	// MSHR entries and DTLB walks that end after the saved cycle.
	inFlight := warm()
	windows := 0
	for _, k := range inFlight.caches {
		windows += len(k.fill.win) + len(k.bus.win)
	}
	if windows == 0 || len(inFlight.caches[L1D].mshr) == 0 || slices.Max(inFlight.dtlb.ready) <= inFlight.now {
		t.Fatalf("setup: %d windows, %d L1D MSHRs and DTLB walks to %d at cycle %d: nothing in flight to checkpoint",
			windows, len(inFlight.caches[L1D].mshr), slices.Max(inFlight.dtlb.ready), inFlight.now)
	}
	data := save(inFlight)
	h, err := restore(DefaultConfig(), data)
	if err != nil {
		t.Fatal(err)
	}
	if string(save(h)) != string(data) {
		t.Fatal("save -> restore -> save changed the bytes")
	}
	want, got := warm(), h
	for i := int64(400); i < 600; i++ {
		if a, b := want.AccessData(i, 0x10000+i*72, i%5 == 0), got.AccessData(i, 0x10000+i*72, i%5 == 0); a != b {
			t.Fatalf("cycle %d: restored hierarchy answered %+v, original %+v", i, b, a)
		}
		if a, b := want.AccessInstr(i, 0x400000+i*40), got.AccessInstr(i, 0x400000+i*40); a != b {
			t.Fatalf("cycle %d: restored hierarchy fetched %+v, original %+v", i, b, a)
		}
	}

	other := DefaultConfig()
	other.Caches[L2].SizeBytes *= 2
	if _, err := restore(other, data); err == nil {
		t.Error("state restored onto a different geometry")
	}
	for name, corrupt := range map[string]func(h *Hierarchy){
		"MSHRs over capacity":           func(h *Hierarchy) { h.caches[L1D].mshr = make([]mshrEntry, h.cfg.Caches[L1D].MSHRs+1) },
		"TLB MRU out of range":          func(h *Hierarchy) { h.dtlb.last = len(h.dtlb.pages) },
		"bus busy until the far future": func(h *Hierarchy) { h.caches[L2].bus.win = []interval{{1 << 40, 1<<40 + 1, 0}} },
		"calendar windows out of order": func(h *Hierarchy) {
			h.caches[L1D].fill.win = []interval{{500, 502, 1}, {400, 402, 2}}
		},
		"empty calendar window":             func(h *Hierarchy) { h.caches[L3].bus.win = []interval{{500, 500, 0}} },
		"TLB walk ending in the far future": func(h *Hierarchy) { h.dtlb.ready[0] = 1 << 40 },
		"fill landing in the far future":    func(h *Hierarchy) { h.caches[L3].mshr = []mshrEntry{{line: 1, done: 1 << 40}} },
	} {
		bad := warm()
		corrupt(bad)
		if _, err := restore(DefaultConfig(), save(bad)); err == nil {
			t.Errorf("%s: restore accepted it", name)
		}
	}
}

// A line is 16 bytes: the default hierarchy holds 37 888 of them, and the
// field order that pads one to 24 costs 296 KiB a machine.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 16 {
		t.Errorf("line is %d bytes, want 16", got)
	}
}
