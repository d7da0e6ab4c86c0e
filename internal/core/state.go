package core

import (
	"fmt"
	"slices"

	"repro/internal/iq"
	"repro/internal/rename"
	"repro/internal/state"
)

// This file implements warmup checkpointing: SaveState writes the complete
// machine state at a cycle boundary (between two Step calls) and
// RestoreState reads it onto a freshly built Processor of the same
// configuration. The contract is bit-exactness: a restored machine steps
// through exactly the cycles the original would have, so warmed state is a
// pure function of (config, workload, warmup spec) and can be cached.
//
// Both directions are the same walk — (*Processor).walk and the
// per-component walks it calls — over a state.Codec, so each mutable field
// is named once, next to the range a restore holds it to. In-flight
// instructions form a table in the stream, and every cross-reference — ROB
// entries, latches, queue slots, producer maps, scheduled events — is an
// index into it. SaveState collects that table in a deterministic order
// before walking: each thread's live ROB window, then the decode and rename
// latches, then any squashed-but-event-referenced orphans discovered by
// scanning the event ring in cycle order.

// maxAhead bounds how far past the checkpoint cycle a restored timestamp
// may lie; the event ring grows to cover whatever is scheduled.
const maxAhead = 1 << 16

// pending is one scheduled event with its absolute target cycle.
type pending struct {
	cycle int64
	event
}

// stateWalk is one pass over the machine: the codec, plus the instruction table
// that turns pointers into stream indices (ids, writing) and back (dyns).
type stateWalk struct {
	*state.Codec
	p      *Processor
	dyns   []*dyn
	ids    map[*dyn]int32 // looked up, never ranged: order cannot leak into the bytes
	events []pending
}

// SaveState writes the machine's complete state to c. It must be called at
// a cycle boundary; the capture is read-only. It fails when the branch
// predictor is a custom implementation whose tables cannot be walked —
// callers treat that as "checkpointing unsupported" and run cold.
func (p *Processor) SaveState(c *state.Codec) error {
	w := &stateWalk{Codec: c, p: p, ids: make(map[*dyn]int32)}
	add := func(d *dyn) {
		if _, seen := w.ids[d]; !seen {
			w.ids[d] = int32(len(w.dyns))
			w.dyns = append(w.dyns, d)
		}
	}
	for _, th := range p.threads {
		for _, d := range th.liveROB() {
			add(d)
		}
	}
	for _, d := range p.decodeLatch {
		add(d)
	}
	for _, d := range p.renameLatch {
		add(d)
	}
	// Live events occupy cycles (cycle, cycle+mask]; the current cycle's
	// bucket was drained (detached, left nil) at the top of this Step and
	// nothing can schedule into it again. Every other bucket is nil or
	// holds its cycle's events in schedule order, which the stream keeps.
	// Events may reference squashed instructions awaiting release; they
	// join the table here.
	if n := len(p.events.buckets[p.cycle&p.events.mask]); n != 0 {
		return fmt.Errorf("core: %d events stranded in the current cycle's bucket", n)
	}
	for off := int64(1); off <= p.events.mask; off++ {
		for _, ev := range p.events.buckets[(p.cycle+off)&p.events.mask] {
			if ev.d != nil {
				add(ev.d)
			}
			w.events = append(w.events, pending{p.cycle + off, ev})
		}
	}
	p.walk(w)
	return c.Err()
}

// RestoreState reads a saved state from c onto a freshly built Processor
// of the same configuration, which must not have stepped. Everything later
// used as an index, enum, count or timestamp is range-checked as it is
// read, and the assembled machine must pass admit. Errors leave the
// processor in an undefined state; callers discard it and run cold.
func (p *Processor) RestoreState(c *state.Codec) error {
	if p.cycle != 0 || p.stats.Cycles != 0 || p.stats.Committed != 0 {
		return fmt.Errorf("core: state restore requires a freshly built processor")
	}
	w := &stateWalk{Codec: c, p: p}
	if p.walk(w); c.Err() == nil {
		p.admit(w)
	}
	return c.Err()
}

// walk walks the whole machine.
func (p *Processor) walk(w *stateWalk) {
	c, cfg := w.Codec, &p.cfg
	if !p.pred.State(c) {
		c.Failf("core: predictor %q does not support checkpointing", cfg.Branch.Predictor)
		return
	}
	state.Count(c, &p.cycle)
	c.SetMaxCycle(p.cycle + maxAhead)
	// The round-robin cursors run free; the stages use them modulo Threads.
	state.Count(c, &p.rrBase)
	state.Count(c, &p.commitRR)
	c.Counters(&p.stats)
	p.ren.State(c)
	p.mem.State(c)

	state.Slice(c, &w.dyns, state.Unbounded, "instruction table", func(_ *state.Codec, d **dyn) {
		if !c.Writing() {
			*d = p.pool.get()
		}
		(*d).walk(w)
	})
	for _, th := range p.threads {
		th.walk(w)
	}
	w.refs(&p.decodeLatch, cfg.FetchTotal, "decode latch")
	w.refs(&p.renameLatch, cfg.FetchTotal, "rename latch")
	w.queue(p.intQ, "int IQ")
	w.queue(p.fpQ, "fp IQ")

	// optHeld may hold stale pointers to recycled instructions (the
	// membership bit, not list presence, is the source of truth). Entries
	// in the table are kept in order — duplicates included, since the
	// release walk tolerates them — and the rest dropped: a stale entry's
	// only behavior is to be skipped.
	held := p.optHeld
	if c.Writing() {
		held = nil
		for _, d := range p.optHeld {
			if _, live := w.ids[d]; live {
				held = append(held, d)
			}
		}
	}
	if w.refs(&held, state.Unbounded, "optimistic-hold list"); !c.Writing() {
		p.optHeld = held
	}
	state.Fixed(c, p.intProducer, "int producer map", w.ref)
	state.Fixed(c, p.fpProducer, "fp producer map", w.ref)
	state.Slice(c, &w.events, state.Unbounded, "event calendar", func(_ *state.Codec, ev *pending) { ev.walk(w) })
}

// ref walks one instruction reference as its table index; nil is -1.
func (w *stateWalk) ref(c *state.Codec, pp **dyn) {
	id := int32(-1)
	if c.Writing() && *pp != nil {
		var live bool
		if id, live = w.ids[*pp]; !live {
			c.Failf("core: reference to an instruction outside the live set")
		}
	}
	if state.Ref(c, &id, len(w.dyns)); !c.Writing() && c.Err() == nil && id >= 0 {
		*pp = w.dyns[id]
	}
}

// refs walks a list of at most max occupied slots.
func (w *stateWalk) refs(s *[]*dyn, max int, what string) {
	state.Slice(w.Codec, s, max, what, func(c *state.Codec, pp **dyn) {
		if w.ref(c, pp); *pp == nil {
			c.Failf("core: %s holds no instruction in an occupied slot", what)
		}
	})
}

// queue walks an instruction queue's occupants, oldest first.
func (w *stateWalk) queue(q *iq.Queue[*dyn], what string) {
	items := q.All()
	if w.refs(&items, q.Cap(), what); !w.Writing() {
		for _, d := range items {
			q.Push(d)
		}
	}
}

// walk walks one in-flight instruction. si and prog are not stored: both
// are re-derived from (thread, pc), since the static image is a pure
// function of the workload spec — so the fields that must agree with the
// static instruction are checked against it here.
func (d *dyn) walk(w *stateWalk) {
	c, cfg := w.Codec, &w.p.cfg
	state.Index(c, &d.thread, cfg.Threads)
	state.Ints(c, &d.seq, &d.pc, &d.rec.PC, &d.rec.NextPC, &d.rec.Addr, &d.addr,
		&d.predNextPC, &d.correctPC, &d.rasCP.Saved, &d.fetchCycle, &d.age,
		&d.earliestIssue, &d.issueCycle, &d.execStart, &d.doneCycle)
	state.Ints(c, &d.rec.Idx, &d.gen, &d.retried)
	state.Int(c, &d.ghrCP)
	state.Int(c, &d.pendingEvts) // cross-checked against the event calendar in admit
	c.Bools(&d.wrongPath, &d.rec.Taken, &d.predTaken, &d.lowConf, &d.hasGhrCP, &d.hasRasCP,
		&d.inIQ, &d.optimistic, &d.memVerified, &d.resolved, &d.optHeldListed)
	state.Enum(c, &d.state, stSquashed)
	state.Enum(c, &d.mispred, mispredExec)
	for _, r := range []*rename.PhysReg{&d.destPhys, &d.oldPhys, &d.src1Phys, &d.src2Phys} {
		state.Ref(c, r, cfg.Rename.PhysPerFile(cfg.Threads))
	}
	state.Index(c, &d.rasCP.Top, cfg.Branch.RASEntries)
	state.Index(c, &d.rasCP.Size, cfg.Branch.RASEntries+1)
	if c.Writing() || c.Err() != nil {
		return
	}
	d.prog = w.p.threads[d.thread].prog
	d.si = d.prog.At(d.pc)
	if (d.destPhys != rename.None && !d.si.Dest.Valid()) || (d.mispred != mispredNone && !d.isControl()) {
		c.Failf("core: instruction at %#x carries state its static form cannot have", d.pc)
	}
}

// walk walks one hardware context. The ROB is walked as its live window
// (rob[robHead:]); the committed prefix is dead and restores as robHead = 0.
func (th *threadState) walk(w *stateWalk) {
	c := w.Codec
	th.feed.State(c)
	c.Bools(&th.wrongPath)
	state.Ints(c, &th.fetchPC, &th.fetchBlockedUntil, &th.imissUntil, &th.committed)
	state.Count(c, &th.nextSeq)
	state.Ints(c, &th.icount, &th.brcount, &th.misscount, &th.lowConfCount)
	state.Int(c, &th.wrongSalt)
	rob := th.liveROB()
	if w.refs(&rob, len(w.dyns), "ROB"); !c.Writing() {
		th.rob, th.robHead = rob, 0
	}
	w.refs(&th.stores, len(w.dyns), "store list")
	w.refs(&th.ctlFlight, len(w.dyns), "control list")
}

// walk walks one scheduled event; reading inserts it into its ring bucket
// through ring.insert, as schedule does, keeping the saved generation
// stamp and per-bucket order. schedule() itself is bypassed: it would
// re-stamp the generation and double-count pendingEvts, which was restored
// with the instruction.
func (ev *pending) walk(w *stateWalk) {
	c, r := w.Codec, &w.p.events
	c.Cycle(&ev.cycle)
	state.Enum(c, &ev.kind, evMissDone)
	w.ref(c, &ev.d)
	state.Index(c, &ev.thread, w.p.cfg.Threads)
	state.Int(c, &ev.gen)
	if c.Writing() || c.Err() != nil {
		return
	}
	if ev.cycle <= w.p.cycle || (ev.kind == evMissDone) != (ev.d == nil) {
		c.Failf("core: malformed %d event at cycle %d (checkpoint cycle %d)", ev.kind, ev.cycle, w.p.cycle)
		return
	}
	r.base = w.p.cycle
	r.insert(ev.cycle, ev.event)
}

// admit rejects a well-formed state the cycle loop could never have
// produced and cannot safely run from — the structural invariants commit,
// squash and the instruction pool rely on without re-checking:
//
//   - each instruction's pending-event count equals the events that
//     reference it (or it would leak or be released twice), and no event
//     outlives its instruction's commit;
//   - an instruction awaits at most one current-generation event, of the
//     kind its class and progress call for; an older generation's events
//     drain before a reissue could complete;
//   - each thread's ROB, then rename latch, then decode latch hold distinct
//     instructions of that thread in fetch order, everything past an
//     unresolved mispredict is wrong-path and nothing before it is, and
//     correct-path fetch resumes exactly where the oracle stands;
//   - exactly the instructions in none of those are squashed orphans.
func (p *Processor) admit(w *stateWalk) {
	refs := make(map[*dyn]int, len(w.dyns))
	current := make(map[*dyn]evKind) // the one current-generation event each instruction awaits
	for _, ev := range w.events {
		d := ev.d
		if d == nil {
			continue
		}
		refs[d]++
		lat := max(int64(d.si.Class.Latency()), 1)
		_, dup := current[d]
		switch stale := ev.gen != d.gen; {
		case d.state == stSquashed:
		case d.doneCycle != 0 && ev.cycle > d.doneCycle,
			stale && ev.cycle >= p.cycle+p.cfg.execOffset()+lat,
			!stale && (dup || d.state != stIssued),
			!stale && ev.kind == evMemExec && (!d.si.Class.IsMem() || d.doneCycle != 0),
			!stale && ev.kind == evResolve && (!d.isControl() || d.resolved),
			!stale && ev.kind == evSquash && (!d.resolved || d.wrongPath || d.mispred != mispredExec):
			w.Failf("core: %d event at cycle %d does not fit thread %d seq %d", ev.kind, ev.cycle, d.thread, d.seq)
			return
		case !stale:
			current[d] = ev.kind
		}
	}

	owned := make(map[*dyn]bool, len(w.dyns))
	for t, th := range p.threads {
		order := slices.Clone(th.rob)
		for _, latch := range [][]*dyn{p.renameLatch, p.decodeLatch} {
			for _, d := range latch {
				if int(d.thread) == t {
					order = append(order, d)
				}
			}
		}
		var mispredict *dyn // the one whose squash fetch is still running ahead of
		last := int64(-1)
		for _, d := range order {
			if owned[d] || int(d.thread) != t || d.seq <= last || d.seq >= th.nextSeq ||
				d.wrongPath != (mispredict != nil) {
				w.Failf("core: thread %d holds seq %d out of order or on the wrong path", t, d.seq)
				return
			}
			owned[d], last = true, d.seq
			if d.mispred == mispredExec && !d.wrongPath && (!d.resolved || current[d] == evSquash) {
				mispredict = d
			}
		}
		resume := th.fetchPC
		if mispredict != nil {
			resume = mispredict.correctPC
		}
		if th.wrongPath != (mispredict != nil) || resume != th.feed.PC() {
			w.Failf("core: thread %d fetch does not rejoin the oracle at %#x", t, th.feed.PC())
			return
		}
	}
	for i, d := range w.dyns {
		if refs[d] != int(d.pendingEvts) || owned[d] == (d.state == stSquashed) {
			w.Failf("core: instruction %d: %d pending events but %d references, squashed=%t held=%t",
				i, d.pendingEvts, refs[d], d.state == stSquashed, owned[d])
			return
		}
	}
}
