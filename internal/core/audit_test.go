package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/iq"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/state"
)

// audited arms p's audit hook: anything the wake filter or the optHeld
// squash search gets wrong fails the test (the first few, then it counts).
func audited(t *testing.T, p *Processor) {
	t.Helper()
	wrong := 0
	p.audit = func(d *dyn, what string) {
		if wrong++; wrong <= 3 {
			t.Errorf("cycle %d, thread %d seq %d (%v): %s", p.cycle, d.thread, d.seq, d.si.Class, what)
		}
	}
	t.Cleanup(func() {
		if wrong > 3 {
			t.Errorf("%d audit findings in all", wrong)
		}
	})
}

// TestDerivedShortcutsSound runs the audit hook over every built-in fetch x
// issue policy pair at 1, 2, 4 and 8 threads under each speculation mode:
// no entry the issue stage skips as asleep would have issued (in tryIssue's
// live filter or in issueReordered's before-the-walk one), and no
// instruction squashDependents must pull back is missing from optHeld. Each
// width has to have exercised what makes those hard — misses, bank-conflict
// retries, optimistic pull-backs, mispredict squashes — and slept at all.
func TestDerivedShortcutsSound(t *testing.T) {
	cycles, widths := 6_000, []int{1, 2, 4, 8}
	if testing.Short() {
		cycles, widths = 2_000, []int{4}
	}
	for _, threads := range widths {
		var seen Stats
		var misses, skipped int64
		for _, mode := range []SpecMode{SpecFull, SpecNoPassBranch, SpecNoWrongPath} {
			for _, f := range policy.FetchNames() {
				for _, is := range policy.IssueNames() {
					t.Run(fmt.Sprintf("%dT/%v/%s/%s", threads, mode, f, is), func(t *testing.T) {
						cfg := DefaultConfig(threads)
						cfg.FetchPolicy, cfg.FetchThreads = policy.FetchAlg(f), min(2, threads)
						cfg.IssuePolicy, cfg.SpecMode = policy.IssueAlg(is), mode
						p := MustNew(cfg, buildTraces(t, threads, 5))
						audited(t, p)
						asleep := 0
						for i := 0; i < cycles; i++ {
							p.Step()
							for _, q := range [][]*dyn{p.intQ.Window(), p.fpQ.Window()} {
								for _, d := range q {
									if d.state == stQueued && p.asleep(d) {
										asleep++
									}
								}
							}
						}
						s := p.Stats()
						if s.Committed == 0 {
							t.Fatal("committed nothing")
						}
						seen.LoadRetries += s.LoadRetries
						seen.OptimisticSquash += s.OptimisticSquash
						seen.SquashedInstructions += s.SquashedInstructions
						misses += p.Mem().CacheStats(mem.L1D).Misses
						skipped += int64(asleep)
					})
				}
			}
		}
		for what, n := range map[string]int64{"L1D misses": misses, "bank-conflict retries": seen.LoadRetries,
			"optimistic pull-backs": seen.OptimisticSquash, "squashed instructions": seen.SquashedInstructions,
			"sleeping queue entries": skipped} {
			if n == 0 {
				t.Errorf("%d threads: no %s in the whole sweep; lengthen it", threads, what)
			}
		}
	}
}

// Wake state is derived and not checkpointed: a machine restored mid-run
// starts with every entry awake, re-learns the blockers, and must land on
// exactly the uninterrupted run's counters — with the audit on throughout.
func TestWakeStateSurvivesRestore(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FetchPolicy, cfg.FetchThreads, cfg.IssuePolicy = policy.ICount, 2, policy.OptLast
	build := func() *Processor {
		p := MustNew(cfg, buildTraces(t, 4, 7))
		audited(t, p)
		return p
	}
	whole := build()
	whole.Run(30_000, 0)
	asleep := 0
	for _, d := range append(whole.intQ.All(), whole.fpQ.All()...) {
		if d.wake != 0 {
			asleep++
		}
	}
	if asleep == 0 {
		t.Fatal("no queue entry has a recorded blocker at the checkpoint; pick another cycle")
	}
	data := writeState(t, whole)
	resumed := build()
	r := state.NewReader(data, stateTestVersion)
	if err := resumed.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range append(resumed.intQ.All(), resumed.fpQ.All()...) {
		if d.wake != 0 {
			t.Fatal("a restored queue entry carries wake state: it leaked into the checkpoint")
		}
	}
	if got, want := resumed.Run(30_000, 0), whole.Run(30_000, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged from the uninterrupted one:\n got %+v\nwant %+v", got, want)
	}
}

// Every pooled instruction is a dyn: 256 bytes is a malloc size class, 257
// rounds to 288 and grows every in-flight instruction by an eighth. New
// fields go into the struct's padding (see wake).
func TestDynStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(dyn{}); size > 256 {
		t.Fatalf("dyn is %d bytes, over the 256-byte size class", size)
	}
}

// dropDead is cleanupQueues' compaction: it must take out exactly the
// squashed and released entries, keep the rest in age order, leave no
// pointer behind in the abandoned tail, and not rewrite a queue that has
// nothing to drop (the read-only pass finds no position to hand over).
func TestDropDead(t *testing.T) {
	fill := func(dead ...int) (*iq.Queue[*dyn], []*dyn) {
		q := iq.New[*dyn](8, 8)
		ds := make([]*dyn, 6)
		for i := range ds {
			ds[i] = &dyn{seq: int64(i), state: stQueued, inIQ: true}
			q.Push(ds[i])
		}
		for n, i := range dead {
			if n%2 == 0 {
				ds[i].state = stSquashed
			} else {
				ds[i].inIQ = false // released: issued, slot given up
			}
		}
		return q, ds
	}

	q, ds := fill()
	if idx := dropDead(q, nil); len(idx) != 0 || !slices.Equal(q.All(), ds) {
		t.Fatalf("a queue with nothing dead was changed: dropped %v, now %d entries", idx, q.Len())
	}

	q, ds = fill(1, 2, 5)
	idx := dropDead(q, make([]int, 0, 4))
	if want := []int{1, 2, 5}; !slices.Equal(idx, want) {
		t.Fatalf("dropped positions %v, want %v", idx, want)
	}
	if want := []*dyn{ds[0], ds[3], ds[4]}; !slices.Equal(q.All(), want) {
		t.Fatalf("survivors out of order or wrong: %d entries", q.Len())
	}
	all := q.All()
	for i, d := range all[len(all):cap(all)] {
		if d != nil {
			t.Fatalf("slot %d past the new length still points at seq %d", len(all)+i, d.seq)
		}
	}
}
