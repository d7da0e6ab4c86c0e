package core

import (
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/policy"
	"repro/internal/rename"
	"repro/internal/state"
)

const stateTestVersion = 1

func stateTestMachine(t *testing.T) *Processor {
	cfg := DefaultConfig(4)
	cfg.FetchPolicy, cfg.FetchThreads = policy.ICount, 2
	return MustNew(cfg, buildPrograms(t, 4, 7))
}

func writeState(t *testing.T, p *Processor) []byte {
	t.Helper()
	c := state.NewWriter(stateTestVersion)
	if err := p.SaveState(c); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	data, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func readState(t *testing.T, data []byte) (*Processor, error) {
	t.Helper()
	p := stateTestMachine(t)
	c := state.NewReader(data, stateTestVersion)
	if err := p.RestoreState(c); err != nil {
		return nil, err
	}
	return p, c.Close()
}

// robDyn returns a renamed in-flight instruction matching pick.
func robDyn(t *testing.T, p *Processor, pick func(*dyn) bool) *dyn {
	t.Helper()
	for _, th := range p.threads {
		for _, d := range th.liveROB() {
			if pick(d) {
				return d
			}
		}
	}
	t.Fatal("no in-flight instruction of the wanted shape; lengthen the warm-up")
	return nil
}

// RestoreState must refuse every state it could not safely run from. Each
// case corrupts one live field of a warmed machine, saves it (the writer
// does not judge), and expects the reader to object; the unmutated machine
// restores and runs on in lockstep with the original. The first eight are
// the mutations a v1 restore accepted — six of them then panicked inside
// Step — the rest exercise the structural invariants in admit.
func TestRestoreStateRejects(t *testing.T) {
	any := func(*dyn) bool { return true }
	soon := func(p *Processor) *[]event { return &p.events.buckets[(p.cycle+3)&p.events.mask] }
	cases := []struct {
		name   string
		mutate func(t *testing.T, p *Processor)
	}{
		{"event thread out of range", func(t *testing.T, p *Processor) {
			*soon(p) = append(*soon(p), event{kind: evMissDone, thread: 99})
		}},
		{"instruction event without instruction", func(t *testing.T, p *Processor) {
			*soon(p) = append(*soon(p), event{kind: evMemExec})
		}},
		{"destination register out of range", func(t *testing.T, p *Processor) {
			robDyn(t, p, any).destPhys = 1_000_000
		}},
		{"source register out of range", func(t *testing.T, p *Processor) {
			robDyn(t, p, any).src1Phys = 1_000_000
		}},
		{"map-table entry out of range", func(t *testing.T, p *Processor) {
			p.ren.Int.Rollback(0, 3, p.ren.Int.Lookup(0, 3), 1_000_000)
		}},
		{"free list names a mapped register", func(t *testing.T, p *Processor) {
			p.ren.Int.CommitFree(p.ren.Int.Lookup(0, 3))
		}},
		{"negative fetch rotation", func(t *testing.T, p *Processor) { p.rrBase = -5 }},
		{"negative commit rotation", func(t *testing.T, p *Processor) { p.commitRR = -1 }},

		{"instruction state past the enum", func(t *testing.T, p *Processor) {
			robDyn(t, p, any).state = stSquashed + 1
		}},
		{"instruction on a thread that does not exist", func(t *testing.T, p *Processor) {
			robDyn(t, p, any).thread = 4
		}},
		{"event kind past the enum", func(t *testing.T, p *Processor) {
			*soon(p) = append(*soon(p), event{kind: evMissDone + 1})
		}},
		{"event scheduled beyond any horizon", func(t *testing.T, p *Processor) {
			p.events.schedule(p.cycle+maxAhead+10, evMissDone, nil, 0)
		}},
		{"256 uncounted references to one instruction", func(t *testing.T, p *Processor) {
			d := robDyn(t, p, any)
			for i := 0; i < 256; i++ { // int8 bookkeeping would wrap back to a match
				*soon(p) = append(*soon(p), event{kind: evResolve, d: d, gen: d.gen - 1})
			}
		}},
		{"wrong-path instruction ahead of every branch", func(t *testing.T, p *Processor) {
			p.threads[0].liveROB()[0].wrongPath = true
		}},
		{"correct-path fetch away from the oracle", func(t *testing.T, p *Processor) {
			for _, th := range p.threads {
				if !th.wrongPath {
					th.fetchPC += 4
					return
				}
			}
			t.Fatal("every thread is on a wrong path")
		}},
		{"instruction in two reorder buffers", func(t *testing.T, p *Processor) {
			p.threads[1].rob = append(p.threads[1].rob, p.threads[0].liveROB()[0])
		}},
		{"squash event for a branch that predicted correctly", func(t *testing.T, p *Processor) {
			d := robDyn(t, p, func(d *dyn) bool {
				return d.isControl() && d.mispred == mispredNone && d.state == stIssued && d.pendingEvts == 0
			})
			d.pendingEvts++
			*soon(p) = append(*soon(p), event{kind: evSquash, d: d, thread: d.thread, gen: d.gen})
		}},
		{"return-stack checkpoint outside the stack", func(t *testing.T, p *Processor) {
			d := robDyn(t, p, any)
			d.hasRasCP, d.rasCP.Top = true, p.cfg.Branch.RASEntries
		}},
	}

	warm := func() *Processor {
		p := stateTestMachine(t)
		p.Run(6_000, 0)
		return p
	}
	t.Run("unmutated", func(t *testing.T) {
		orig := warm()
		data := writeState(t, orig)
		p, err := readState(t, data)
		if err != nil {
			t.Fatalf("RestoreState refused an honest state: %v", err)
		}
		if again := writeState(t, p); string(again) != string(data) {
			t.Fatal("Save -> Restore -> Save changed the bytes")
		}
		if got, want := p.Run(5_000, 0), orig.Run(5_000, 0); got.Cycles != want.Cycles || got.Issued != want.Issued {
			t.Fatalf("restored machine diverged: %d cycles / %d issued, want %d / %d", got.Cycles, got.Issued, want.Cycles, want.Issued)
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := warm()
			tc.mutate(t, p)
			if _, err := readState(t, writeState(t, p)); err == nil {
				t.Fatal("RestoreState accepted the corrupted state")
			} else {
				t.Log(err)
			}
		})
	}
}

// alternating is a custom direction engine: taken on every other word.
type alternating struct{}

func (alternating) Predict(history uint32, pc int64) (bool, bool) { return pc&4 != 0, false }
func (alternating) Update(history uint32, pc int64, taken bool)   {}

// A custom predictor's tables are opaque: a machine built on one runs, and
// SaveState says it cannot checkpoint it rather than write a stream that
// silently lacks the engine's state.
func TestSaveStateRefusesOpaquePredictor(t *testing.T) {
	const name = "test_core_alternating"
	if err := branch.Register(name, func(branch.Config) (branch.DirEngine, error) { return alternating{}, nil }); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.Branch.Predictor = name
	p := MustNew(cfg, buildPrograms(t, 4, 7))
	if s := p.Run(3_000, 0); s.Committed == 0 {
		t.Fatal("machine with a custom direction engine committed nothing")
	}
	if err := p.SaveState(state.NewWriter(stateTestVersion)); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("SaveState on a custom predictor = %v, want a refusal naming it", err)
	}
}

// xorshift is the property test's seeded source of mutations.
type xorshift uint64

func (r *xorshift) below(n int) int {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = xorshift(x)
	return int(x % uint64(n))
}

// corrupt applies one random in-range mutation to a live machine: the kind
// of damage a flipped byte in a checkpoint does once it has passed every
// range check — a flag, a small delta, a reference retargeted to another
// live instruction, an event moved, copied or dropped.
func corrupt(p *Processor, r *xorshift) {
	var live []*dyn
	for _, th := range p.threads {
		live = append(live, th.liveROB()...)
	}
	live = append(append(live, p.decodeLatch...), p.renameLatch...)
	d, th := live[r.below(len(live))], p.threads[r.below(len(p.threads))]
	delta := int64(r.below(9) - 4)
	reg := func() rename.PhysReg { return rename.PhysReg(r.below(p.cfg.Rename.PhysPerFile()+1) - 1) }
	soon := &p.events.buckets[(p.cycle+1+int64(r.below(40)))&p.events.mask]

	flags := []*bool{&d.wrongPath, &d.predTaken, &d.lowConf, &d.hasGhrCP, &d.hasRasCP, &d.inIQ, &d.optimistic,
		&d.memVerified, &d.resolved, &d.optHeldListed, &d.rec.Taken, &th.wrongPath}
	nudges := []*int64{&d.seq, &d.pc, &d.correctPC, &d.fetchCycle, &d.earliestIssue, &d.issueCycle, &d.execStart,
		&d.doneCycle, &d.addr, &d.rec.NextPC, &th.fetchPC, &th.fetchBlockedUntil, &th.nextSeq}
	lists := []*[]*dyn{&th.rob, &th.stores, &th.ctlFlight, &p.decodeLatch, &p.renameLatch, &p.optHeld}
	switch k := r.below(len(flags) + len(nudges) + len(lists) + 14); {
	case k < len(flags):
		*flags[k] = !*flags[k]
	case k < len(flags)+len(nudges):
		*nudges[k-len(flags)] += 4 * delta
	case k < len(flags)+len(nudges)+len(lists):
		l := lists[k-len(flags)-len(nudges)]
		*l = append(*l, d)
	default:
		switch k - len(flags) - len(nudges) - len(lists) {
		case 0:
			d.thread = int32(r.below(p.cfg.Threads))
		case 1:
			d.state = dynState(r.below(int(stSquashed) + 1))
		case 2:
			d.mispred = mispredKind(r.below(int(mispredExec) + 1))
		case 3:
			d.destPhys, d.oldPhys = reg(), reg()
		case 4:
			d.src1Phys, d.src2Phys = reg(), reg()
		case 5:
			d.doneCycle = 0
		case 6:
			d.pendingEvts += int8(delta)
		case 7:
			d.gen += int32(delta)
		case 8:
			p.intQ.Push(d)
		case 9:
			p.intProducer[r.below(len(p.intProducer))] = d
		case 10: // drop a live-window entry, or swap two
			if l := th.liveROB(); len(l) > 1 {
				i, j := r.below(len(l)), r.below(len(l))
				l[i], l[j] = l[j], l[i]
				if delta < 0 {
					th.rob = th.rob[:len(th.rob)-1]
				}
			}
		case 11: // a new event, correctly counted
			d.pendingEvts++
			*soon = append(*soon, event{kind: evKind(r.below(int(evMissDone))), d: d, thread: d.thread, gen: d.gen})
		default: // rewrite, copy or move an existing event, keeping counts right
			for b := range p.events.buckets {
				evs := &p.events.buckets[b]
				if len(*evs) == 0 || r.below(4) != 0 {
					continue
				}
				ev := &(*evs)[r.below(len(*evs))]
				switch r.below(4) {
				case 0:
					ev.kind = evKind(r.below(int(evMissDone) + 1))
				case 1:
					ev.gen += int32(delta)
				case 2:
					if ev.d != nil {
						ev.d.pendingEvts++
					}
					*soon = append(*soon, *ev)
				case 3:
					if ev.d != nil {
						ev.d, d.pendingEvts = d, d.pendingEvts+1
					}
				}
				return
			}
		}
	}
}

// Range checks alone do not make a state safe: a flipped wrong-path flag or
// a retargeted event is in range and still ends in one of the cycle loop's
// own panics. This seeded property test damages warmed machines the way
// corrupt bytes would, and holds RestoreState to its contract — whatever it
// admits must run. (With admit disabled, one in five admitted machines
// panics within 3,000 instructions.)
func TestRestoreStateAdmitsOnlyRunnableMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	r := xorshift(0x9E3779B97F4A7C15)
	admitted := 0
	for iter := 0; iter < 400; iter++ {
		p := stateTestMachine(t)
		p.Run(int64(3_000+r.below(3_000)), 0)
		for n := 1 + r.below(3); n > 0; n-- {
			corrupt(p, &r)
		}
		c := state.NewWriter(stateTestVersion)
		if p.SaveState(c) != nil {
			continue // damage the writer itself can see (a dangling reference)
		}
		data, _ := c.Bytes()
		q, err := readState(t, data)
		if err != nil {
			continue
		}
		admitted++
		func() {
			defer func() {
				if e := recover(); e != nil {
					t.Fatalf("iteration %d: RestoreState admitted a machine that panics: %v", iter, e)
				}
			}()
			q.Run(3_000, 30_000)
		}()
	}
	if admitted < 100 {
		t.Fatalf("only %d of 400 damaged machines admitted: the mutations no longer reach admit", admitted)
	}
}
