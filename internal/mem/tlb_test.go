package mem

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/state"
)

// refTLB is the TLB without either fast path: every lookup is the full tag
// scan, then the LRU victim search. It is the specification the MRU filter
// and the hint array must be indistinguishable from.
type refTLB struct {
	pages   []uint64
	lru     []uint32
	valid   []bool
	lruTick uint32
	last    int
	shift   uint
	stats   Stats
}

func newRefTLB(t *TLB) *refTLB {
	return &refTLB{
		pages: slices.Clone(t.pages), lru: slices.Clone(t.lru), valid: slices.Clone(t.valid),
		lruTick: t.lruTick, last: t.last, shift: t.pageShift, stats: t.stats,
	}
}

func (r *refTLB) Lookup(addr int64) bool {
	page := uint64(addr) >> r.shift
	r.stats.Accesses++
	r.lruTick++
	for i := range r.pages {
		if r.valid[i] && r.pages[i] == page {
			r.lru[i] = r.lruTick
			r.last = i
			return true
		}
	}
	victim := 0
	for i := range r.pages {
		if !r.valid[i] {
			victim = i
		} else if r.valid[victim] && r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.stats.Misses++
	r.pages[victim], r.valid[victim], r.lru[victim], r.last = page, true, r.lruTick, victim
	return false
}

// agree fails unless the hinted TLB and the reference hold the same entries
// with the same LRU stamps (so chose the same victims), the same MRU index
// and the same counters.
func agree(t *testing.T, step int, tlb *TLB, ref *refTLB) {
	t.Helper()
	if !slices.Equal(tlb.pages, ref.pages) || !slices.Equal(tlb.valid, ref.valid) || !slices.Equal(tlb.lru, ref.lru) ||
		tlb.last != ref.last || tlb.lruTick != ref.lruTick || tlb.stats != ref.stats {
		t.Fatalf("step %d: hinted TLB diverged from the scan-only reference\n got last=%d stats=%+v pages=%v\nwant last=%d stats=%+v pages=%v",
			step, tlb.last, tlb.stats, tlb.pages, ref.last, ref.stats, ref.pages)
	}
}

// sameSlotPages returns n distinct pages that all hash to one hint slot.
func sameSlotPages(n int) []uint64 {
	var pages []uint64
	want := hintSlot(1)
	for p := uint64(1); len(pages) < n; p++ {
		if hintSlot(p) == want {
			pages = append(pages, p)
		}
	}
	return pages
}

// TestTLBHintMatchesScan drives a hinted TLB and the scan-only reference
// with the same address streams — the shapes that stress each fast path —
// and requires them to agree after every lookup; then checkpoints the TLB
// mid-stream into a fresh one (cold hint array, since the hint is derived
// state and not stored) and requires the rest of the stream to agree too.
func TestTLBHintMatchesScan(t *testing.T) {
	const entries, pageBytes = 16, 8 << 10
	aliased := sameSlotPages(entries + 4)
	streams := map[string]func(rng *rand.Rand, i int) uint64{
		// A small hot set revisited at random: mostly hint hits.
		"random-fits": func(rng *rand.Rand, i int) uint64 { return uint64(rng.Intn(entries - 2)) },
		// More pages than entries: constant eviction, hints go stale.
		"random-overflows": func(rng *rand.Rand, i int) uint64 { return uint64(rng.Intn(3 * entries)) },
		// Eight interleaved walkers in separate address spaces (tag in the
		// high bits), each striding through its pages: defeats the MRU filter.
		"strided-contexts": func(rng *rand.Rand, i int) uint64 { return uint64(i%8)<<40 | uint64(i/8/5%3) },
		// Every page lands in the same hint slot: the slot thrashes, and the
		// verify-then-scan fallback has to carry the load, within capacity…
		"aliased-fits": func(rng *rand.Rand, i int) uint64 { return aliased[rng.Intn(entries-1)] },
		// …and past it.
		"aliased-overflows": func(rng *rand.Rand, i int) uint64 { return aliased[rng.Intn(len(aliased))] },
		// A cyclic sweep one page wider than the TLB: LRU's worst case, every
		// lookup a miss that installs over the hint's previous target.
		"cyclic-sweep": func(rng *rand.Rand, i int) uint64 { return uint64(i % (entries + 1)) },
	}
	for name, next := range streams {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			tlb := NewTLB(TLBConfig{Entries: entries, PageBytes: pageBytes, MissPenalty: 1})
			ref := newRefTLB(tlb)
			step := 0
			run := func(n int) {
				for ; n > 0; n-- {
					// Repeat some addresses back to back so the MRU filter fires.
					addr := int64(next(rng, step)*pageBytes) + int64(rng.Intn(pageBytes))
					for rep := 1 + rng.Intn(2); rep > 0; rep-- {
						if got, want := tlb.Lookup(addr), ref.Lookup(addr); got != want {
							t.Fatalf("step %d addr %#x: hit=%t, reference says %t", step, addr, got, want)
						}
						agree(t, step, tlb, ref)
					}
					step++
				}
			}
			run(4000)
			if tlb.stats.Misses == 0 || tlb.stats.Misses == tlb.stats.Accesses {
				t.Fatalf("stream saw %d misses in %d lookups: it does not exercise both outcomes", tlb.stats.Misses, tlb.stats.Accesses)
			}

			w := state.NewWriter(1)
			tlb.state(w)
			data, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			warmHint := tlb.hint
			tlb = NewTLB(tlb.cfg)
			r := state.NewReader(data, 1)
			if tlb.state(r); r.Close() != nil {
				t.Fatal(r.Close())
			}
			if tlb.hint == warmHint {
				t.Fatal("the restored TLB's hint array is warm: derived state leaked into the checkpoint")
			}
			agree(t, step, tlb, ref)
			run(4000)
		})
	}
}
