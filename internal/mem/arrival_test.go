package mem

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// freeBank returns the first cycle at or after now at which addr's I-cache
// bank is free of fills: where the fetch unit would access it.
func freeBank(h *Hierarchy, now int64, addr int64) int64 {
	for h.InstrBankBusy(now, addr) {
		now++
	}
	return now
}

// warmInstr fetches addr and waits out its fill, bank included.
func warmInstr(h *Hierarchy, now int64, addr int64) int64 {
	r := h.AccessInstr(freeBank(h, now, addr), addr)
	return freeBank(h, r.Done, addr)
}

// TestLineUsableWhenItsFillLands is the two-contexts-one-set livelock in
// miniature. Lines a and b = a+32 KiB share a direct-mapped L1I set; both
// sit in the L2 and neither in the L1I. a misses, then b misses 5 cycles
// later. At a's first bank-free cycle at or after its fill lands, before
// b's does, a must hit: a fill that has not landed evicts nothing.
func TestLineUsableWhenItsFillLands(t *testing.T) {
	h := MustNew(DefaultConfig())
	size := int64(h.cfg.Caches[L1I].SizeBytes)
	a, b := int64(0x40000), 0x40000+size
	now := int64(0)
	for _, addr := range []int64{a, b, a + 2*size} {
		now = warmInstr(h, now, addr)
	}
	now += 100
	if h.ProbeInstr(now, a) || h.ProbeInstr(now, b) {
		t.Fatal("setup: a or b still in the L1I")
	}
	l2Misses := h.CacheStats(L2).Misses

	ra := h.AccessInstr(now, a)
	rb := h.AccessInstr(now+5, b)
	if !ra.Miss || !rb.Miss || ra.TLBMiss || rb.TLBMiss || h.CacheStats(L2).Misses != l2Misses {
		t.Fatalf("setup: want two L1I misses that hit in the L2, got %+v and %+v", ra, rb)
	}
	at := freeBank(h, ra.Done, a)
	if at >= rb.Done {
		t.Fatalf("setup: a's bank is free at %d, not before b's fill lands at %d", at, rb.Done)
	}
	if r := h.AccessInstr(at, a); r.Miss {
		t.Fatalf("a missed again at cycle %d, after its own fill landed at %d (%+v)", at, ra.Done, r)
	}
}

// TestStoreMissInstallsDirty: a store miss leaves the tags alone until its
// fill lands, then installs its line dirty, so evicting the line books a
// writeback on the bus that a load miss's line does not.
func TestStoreMissInstallsDirty(t *testing.T) {
	const addr = int64(0x20000)
	busAfterEviction := func(write bool) int64 {
		h := MustNew(DefaultConfig())
		c := h.caches[L1D]
		r := h.AccessData(0, addr, write)
		landed := r.Done - 1 // Done adds the 1-cycle hit to the fill
		if c.expireMSHRs(landed - 1); c.probe(addr) {
			t.Fatalf("write=%v: line in the tags at %d, before its fill lands at %d", write, landed-1, landed)
		}
		c.expireMSHRs(landed)
		set, tag := c.setTag(addr)
		if l := c.lines[set]; !l.valid || l.tag != tag || l.dirty != write {
			t.Fatalf("write=%v: line after its fill landed is %+v, want tag %#x dirty %v", write, l, tag, write)
		}
		r = h.AccessData(landed+10, addr+int64(c.cfg.SizeBytes), false)
		bus := booked(&c.bus)
		c.expireMSHRs(r.Done)
		if c.probe(addr) {
			t.Fatalf("write=%v: conflicting fill landed without evicting the line", write)
		}
		return booked(&c.bus) - bus
	}
	clean, dirty := busAfterEviction(false), busAfterEviction(true)
	if want := int64(DefaultConfig().Caches[L1D].TransferTime); clean != 0 || dirty != want {
		t.Fatalf("evicting booked the bus for %d cycles (clean line) and %d (dirty), want 0 and %d", clean, dirty, want)
	}
}

// TestFillsLandInDoneOrder is a property over seeded streams of 10⁵ L1I
// lookups each: K ∈ {1, 2, 8} requesters fetch from a dozen lines on
// three direct-mapped sets. A requester waits out its own miss and then
// fetches the same line again, as a stalled context does. A shadow of the
// tags, fed only the Done each miss reports, predicts every outcome: a
// line in flight merges onto its fill, so no line hits before its fill
// lands; and the resident line of a set is the one whose fill landed last
// (done order, request order breaking ties), so a landed line leaves the
// tags only to a fill that landed after it.
func TestFillsLandInDoneOrder(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { checkLandingOrder(t, k, 100_000) })
	}
}

func checkLandingOrder(t *testing.T, k, lookups int) {
	h := MustNew(DefaultConfig())
	size := int64(h.cfg.Caches[L1I].SizeBytes)
	const sets, tags = 3, 4
	var lines []int64
	for tg := int64(0); tg < tags; tg++ {
		for s := int64(0); s < sets; s++ {
			lines = append(lines, 0x100000+tg*size+s*64)
		}
	}
	for _, l := range lines {
		h.itlb.Lookup(0, l) // warm the ITLB: a miss would shift the lookup past now
	}
	c := h.caches[L1I]

	// The shadow: per set, the fills not yet landed in request order, and
	// the line whose fill landed last.
	type fill struct {
		line int64
		done int64
	}
	type shadowSet struct {
		pending  []fill
		resident fill
		landed   bool
	}
	shadow := make([]shadowSet, c.sets)
	// at lands set's fills done by now, in done order, request order
	// breaking ties; each pending fill is due after the resident's.
	at := func(addr int64, now int64) *shadowSet {
		s, _ := c.setTag(addr)
		sh := &shadow[s]
		keep := sh.pending[:0]
		for _, f := range sh.pending {
			switch {
			case f.done > now:
				keep = append(keep, f)
			case !sh.landed || f.done >= sh.resident.done:
				sh.resident, sh.landed = f, true
			}
		}
		sh.pending = keep
		return sh
	}

	src := rng.New(uint64(k))
	type requester struct {
		addr  int64 // the line it fetches next, at some offset
		ready int64
	}
	reqs := make([]requester, k)
	pick := func(r *requester) { r.addr = lines[src.Intn(len(lines))] + int64(src.Intn(16))*4 }
	for i := range reqs {
		pick(&reqs[i])
	}
	for now, done := int64(0), 0; done < lookups; now++ {
		for i := range reqs {
			r := &reqs[(i+int(now))%k]
			if r.ready > now {
				continue
			}
			line := r.addr &^ 63
			if h.InstrBankBusy(now, r.addr) {
				continue // retried next cycle
			}
			res := h.AccessInstr(now, r.addr)
			done++
			sh := at(line, now)
			if i := slices.IndexFunc(sh.pending, func(f fill) bool { return f.line == line }); i >= 0 {
				if d := sh.pending[i].done; !res.Miss || res.Done != d {
					t.Fatalf("K=%d: %#x at %d: %+v, want a merge onto its fill landing at %d", k, line, now, res, d)
				}
				r.ready = res.Done
				continue
			}
			if sh.landed && sh.resident.line == line {
				if res.Miss {
					t.Fatalf("K=%d: %#x missed at %d: its fill landed at %d and no later fill to its set has landed", k, line, now, sh.resident.done)
				}
				r.ready = now + 1 + int64(src.Intn(3))
				pick(r)
				continue
			}
			if !res.Miss || res.Done <= now {
				t.Fatalf("K=%d: %#x at %d: %+v, want a miss: its set holds another line or none", k, line, now, res)
			}
			sh.pending = append(sh.pending, fill{line, res.Done})
			r.ready = res.Done
		}
	}
}

// booked returns the cycles a calendar holds booked.
func booked(c *calendar) int64 {
	var n int64
	for _, w := range c.win {
		n += w.end - w.start
	}
	return n
}

// TestStoreMergeDirtiesLine: a store that merges onto a load's in-flight
// fill dirties the line the fill installs, so evicting the line books a
// writeback on the bus, as it does for a store that missed itself.
func TestStoreMergeDirtiesLine(t *testing.T) {
	const addr = int64(0x20000)
	h := MustNew(DefaultConfig())
	c := h.caches[L1D]
	load := h.AccessData(0, addr, false)
	if !load.L1Miss {
		t.Fatalf("setup: the load hit: %+v", load)
	}
	store := h.AccessData(1, addr+8, true)
	if !store.L1Miss || store.Done != load.Done || c.stats.Merged != 1 {
		t.Fatalf("setup: the store did not merge onto the load's fill: %+v after %+v, %d merged", store, load, c.stats.Merged)
	}
	landed := load.Done - 1
	c.expireMSHRs(landed)
	set, tag := c.setTag(addr)
	if l := c.lines[set]; !l.valid || l.tag != tag || !l.dirty {
		t.Fatalf("line after the fill landed is %+v, want tag %#x and dirty", l, tag)
	}
	r := h.AccessData(landed+10, addr+int64(c.cfg.SizeBytes), false)
	bus := booked(&c.bus)
	c.expireMSHRs(r.Done)
	if got, want := booked(&c.bus)-bus, int64(c.cfg.TransferTime); got != want {
		t.Fatalf("evicting the merged-into line booked the bus for %d cycles, want a %d-cycle writeback", got, want)
	}
}

// TestTLBEntryUsableWhenItsWalkEnds is the TLB's version of install on
// arrival. A line sits in the L1D while its page has left the DTLB. A load
// to another line of the page misses the DTLB and walks; a load to the
// cached line one cycle later hits the entry that walk is filling, and
// must wait for the walk, not finish before it.
func TestTLBEntryUsableWhenItsWalkEnds(t *testing.T) {
	const page = int64(0x400000)
	cfg := DefaultConfig()
	h := MustNew(cfg)
	cached := page + 64
	now := warm(h, 0, cached)
	// Evict the page from the DTLB through pages whose first lines map to
	// other L1D sets than the cached line's.
	for i := int64(1); i <= int64(cfg.DTLB.Entries); i++ {
		now = warm(h, now, page+i*int64(cfg.DTLB.PageBytes))
	}
	now += 1000
	first := h.AccessData(now, page+128, false)
	if !first.TLBMiss {
		t.Fatalf("setup: the page is still in the DTLB: %+v", first)
	}
	walked := now + int64(cfg.DTLB.MissPenalty)
	second := h.AccessData(now+1, cached, false)
	if second.TLBMiss || second.L1Miss || second.BankConflict {
		t.Fatalf("setup: want a DTLB and L1D hit, got %+v", second)
	}
	if second.Done <= walked {
		t.Fatalf("the second load finished at %d, before the first's walk ends at %d", second.Done, walked)
	}
}
