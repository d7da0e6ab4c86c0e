package core

import (
	"repro/internal/iq"
	"repro/internal/rename"
)

// processEvents handles everything scheduled for the current cycle: memory
// executions (D-cache access, optimistic-issue verification), control
// resolution, mispredict squashes, and miss-completion bookkeeping.
func (p *Processor) processEvents() {
	evs := p.events.drain(p.cycle)
	needsCleanup := false
	for _, ev := range evs {
		if ev.d != nil {
			ev.d.pendingEvts--
		}
		switch ev.kind {
		case evMissDone:
			p.threads[ev.thread].misscount--
			continue
		case evSquash:
			if ev.d.state != stSquashed && ev.gen == ev.d.gen {
				p.performSquash(ev.d)
				needsCleanup = true
			}
			p.maybeRelease(ev.d)
			continue
		}
		d := ev.d
		if d.state == stSquashed || ev.gen != d.gen {
			// Squashed, or rescheduled after an optimistic pull-back: the
			// event no longer describes this instruction's timing.
			p.maybeRelease(d)
			continue
		}
		switch ev.kind {
		case evMemExec:
			if p.memExec(d) {
				needsCleanup = true
			}
		case evResolve:
			p.resolve(d)
		}
	}
	if needsCleanup {
		p.cleanupQueues()
	}
}

// memExec performs the D-cache access for a load or store reaching its
// execute stage. It returns true when IQ entries were released or reverted
// (requiring queue cleanup).
func (p *Processor) memExec(d *dyn) bool {
	th := p.threads[d.thread]
	res := p.mem.AccessData(p.cycle, d.addr, d.isStore())
	if res.BankConflict {
		// Retry next cycle; dependents issued on the optimistic schedule
		// are squashed exactly as for a miss (Section 2: "squash those
		// instructions in the case of an L1 cache miss or a bank conflict").
		d.retried++
		p.stats.LoadRetries++
		d.execStart = p.cycle + 1
		p.events.schedule(d.execStart, evMemExec, d, d.thread)
		if d.isLoad() && d.destPhys != rename.None {
			ready := d.execStart + 1 - p.cfg.execOffset()
			if ready <= p.cycle {
				ready = p.cycle + 1
			}
			p.ren.FileFor(d.si.Dest).SetReady(d.destPhys, ready)
			return p.squashDependents(d)
		}
		return false
	}

	if d.isStore() {
		// Address now resolved: younger loads may proceed.
		th.removeStore(d)
		d.memVerified = true
		d.doneCycle = p.cycle + 1 + p.cfg.commitDelay()
		return false
	}

	// Load: hit or miss now known.
	d.memVerified = true
	d.doneCycle = res.Done + p.cfg.commitDelay()
	changed := false
	if res.L1Miss {
		th.misscount++
		p.events.schedule(res.Done, evMissDone, nil, d.thread)
	}
	if d.destPhys != rename.None {
		// Dependents may issue so that their execute stage begins after the
		// data is available.
		ready := res.Done - p.cfg.execOffset() + 1
		if ready <= p.cycle {
			ready = p.cycle // hit: the optimistic schedule was correct
		}
		f := p.ren.FileFor(d.si.Dest)
		if res.L1Miss {
			f.SetReady(d.destPhys, ready)
			changed = p.squashDependents(d)
		} else {
			changed = p.releaseDependents()
		}
	} else if !res.L1Miss {
		changed = p.releaseDependents()
	}
	return changed
}

// squashDependents pulls back every issued-but-not-executing instruction
// that transitively consumed d's (now invalidated) result. The instructions
// return to their IQ slots — which they still hold, being optimistic — and
// reissue once the corrected ready time passes. Returns true if any were
// squashed.
//
// That same fact bounds the search: an instruction can have read an
// unverified load's result, or the result of another instruction that did,
// only by issuing optimistically, which put it on optHeld, and it is not
// released while its producer can still be squashed. So the walk covers
// optHeld, not every issued instruction; stale and duplicate entries there
// fail the state test or flip on first visit.
func (p *Processor) squashDependents(root *dyn) bool {
	work := append(p.squashBuf[:0], root)
	any := false
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		if w.destPhys == rename.None {
			continue
		}
		f := p.ren.FileFor(w.si.Dest)
		if p.audit != nil {
			p.auditSquashSearch(w, f == p.ren.FP)
		}
		for _, x := range p.optHeld {
			if x.state != stIssued || x.execStart < p.cycle || x == w {
				continue
			}
			if !consumes(x, f == p.ren.FP, w.destPhys, p) {
				continue
			}
			// Revert to queued; the entry still occupies its IQ slot. The
			// generation bump invalidates events scheduled by the wasted
			// issue, and the cleared doneCycle blocks premature commit.
			x.state = stQueued
			x.earliestIssue = p.cycle + 1
			x.optimistic = false
			x.gen++
			x.doneCycle = 0
			x.memVerified = false // a pulled-back load re-verifies on reissue
			p.stats.OptimisticSquash++
			any = true
			if x.destPhys != rename.None {
				p.ren.FileFor(x.si.Dest).SetReady(x.destPhys, rename.NotReady)
				work = append(work, x)
			}
		}
	}
	p.squashBuf = work // empty here; retains the grown backing array
	return any
}

// auditSquashSearch runs behind the test-only audit hook: whatever
// squashDependents must pull back for w, found here among all in-flight
// instructions, has to be on optHeld, the list it actually searches.
func (p *Processor) auditSquashSearch(w *dyn, fp bool) {
	for _, th := range p.threads {
		for _, x := range th.liveROB() {
			if x.state == stIssued && x.execStart >= p.cycle && x != w && !x.optHeldListed && consumes(x, fp, w.destPhys, p) {
				p.audit(x, "consumed a squashed result, but is not on optHeld")
			}
		}
	}
}

// consumes reports whether x reads physical register reg of the given file.
func consumes(x *dyn, fp bool, reg rename.PhysReg, p *Processor) bool {
	if x.src1Phys == reg && x.si.Src1.Valid() && x.si.Src1.IsFP() == fp {
		return true
	}
	if x.src2Phys == reg && x.si.Src2.Valid() && x.si.Src2.IsFP() == fp {
		return true
	}
	return false
}

// releaseDependents frees the IQ slots of optimistic instructions whose
// producers have all verified, cascading through dependence levels. It
// returns true when any slot was released.
//
// It walks the optHeld membership list instead of both queues: every
// instruction satisfying (issued && optimistic && inIQ) went through
// issueOne with optimistic set, so the list covers exactly what a scan of
// both queues would match. The released set is the unique fixed point of a monotone
// condition over the (acyclic) producer graph, so visiting in list order
// rather than age order changes nothing.
func (p *Processor) releaseDependents() bool {
	released := false
	for {
		progress := false
		keep := p.optHeld[:0]
		for _, d := range p.optHeld {
			if !d.optHeldListed {
				continue // stale: released, pulled back, or recycled
			}
			if d.state != stIssued || !d.optimistic || !d.inIQ {
				d.optHeldListed = false
				continue
			}
			if p.stillAtRisk(d) {
				keep = append(keep, d)
				continue
			}
			d.optimistic = false
			d.inIQ = false
			d.optHeldListed = false
			th := p.threads[d.thread]
			th.icount--
			if d.isControl() {
				th.brcount--
			}
			progress = true
			released = true
		}
		for i := len(keep); i < len(p.optHeld); i++ {
			p.optHeld[i] = nil
		}
		p.optHeld = keep
		if !progress {
			break
		}
	}
	return released
}

// stillAtRisk reports whether an issued instruction could yet be squashed:
// some source producer is an unverified load or an optimistic issued
// instruction.
func (p *Processor) stillAtRisk(d *dyn) bool {
	for i := 0; i < 2; i++ {
		reg := d.si.Src1
		phys := d.src1Phys
		if i == 1 {
			reg, phys = d.si.Src2, d.src2Phys
		}
		f := p.srcFile(reg)
		if f == nil || phys == rename.None {
			continue
		}
		if p.srcAtRisk(f, phys) {
			return true
		}
	}
	return false
}

// srcAtRisk reports whether reading this physical register now would be
// optimistic: its producer is a load whose hit/miss is unknown, or an
// issued instruction that is itself optimistic (transitive risk). An
// instruction issued on an at-risk source must keep its IQ slot so an
// optimistic-issue squash can pull it back.
func (p *Processor) srcAtRisk(f *rename.File, phys rename.PhysReg) bool {
	prod := p.producerFor(f, phys)
	if prod == nil {
		return false
	}
	if prod.isLoad() && prod.state >= stIssued && !prod.memVerified {
		return true
	}
	return prod.state == stIssued && prod.optimistic
}

// resolve handles a control instruction reaching the end of execution.
// Correct-path mispredicts schedule the squash-and-redirect for the next
// cycle (the paper discovers mispredictions in exec and squashes a cycle
// later).
func (p *Processor) resolve(d *dyn) {
	d.resolved = true
	th := p.threads[d.thread]
	th.removeCtl(d)
	p.noteLowConfDone(d)
	if !d.wrongPath && d.mispred == mispredExec {
		p.stats.Mispredicts++
		p.stats.MispredictsByThread[d.thread]++
		p.events.schedule(p.cycle+1, evSquash, d, d.thread)
	}
}

// noteLowConfDone retires d's low-confidence charge against its thread.
// The flag clears on the first call, so an instruction that is resolved
// and later squashed (or squashed while its resolve event is in flight)
// decrements exactly once.
func (p *Processor) noteLowConfDone(d *dyn) {
	if d.lowConf {
		d.lowConf = false
		p.threads[d.thread].lowConfCount--
	}
}

// performSquash kills every instruction of d's thread younger than d,
// rolling back rename state and prediction checkpoints, and redirects fetch
// to the correct path.
func (p *Processor) performSquash(branchD *dyn) {
	th := p.threads[branchD.thread]
	seq := branchD.seq

	// Youngest first: the decode latch holds the youngest instructions,
	// then the rename latch, then the in-flight (renamed) tail.
	p.squashLatch(&p.decodeLatch, th, seq)
	p.squashLatch(&p.renameLatch, th, seq)

	for len(th.rob) > th.robHead {
		d := th.rob[len(th.rob)-1]
		if d.seq <= seq {
			break
		}
		th.rob[len(th.rob)-1] = nil
		th.rob = th.rob[:len(th.rob)-1]
		p.squashRenamed(d, th)
	}

	th.truncateAux(seq)
	th.wrongPath = false
	th.fetchPC = branchD.correctPC
	if until := p.cycle + p.cfg.redirectBubble(); until > th.fetchBlockedUntil {
		th.fetchBlockedUntil = until
	}

	// Repair the global history: fetch speculated the predicted (wrong)
	// direction for this branch; post-redirect prediction must see the
	// actual outcome, as hardware GHR repair does.
	if branchD.hasGhrCP {
		p.pred.RestoreHistory(th.id, branchD.ghrCP)
		p.pred.SpeculateHistory(th.id, branchD.rec.Taken)
	}
}

// squashLatch removes thread instructions younger than seq from a front-end
// latch, restoring prediction checkpoints youngest-first.
func (p *Processor) squashLatch(latch *[]*dyn, th *threadState, seq int64) {
	l := *latch
	for i := len(l) - 1; i >= 0; i-- {
		d := l[i]
		if int(d.thread) != th.id || d.seq <= seq {
			continue
		}
		p.restoreCheckpoints(d, th)
		p.noteLowConfDone(d)
		th.icount--
		if d.isControl() {
			th.brcount--
		}
		d.state = stSquashed
		p.stats.SquashedInstructions++
		p.maybeRelease(d)
	}
	out := l[:0]
	for _, d := range l {
		if d.state != stSquashed {
			out = append(out, d)
		}
	}
	for i := len(out); i < len(l); i++ {
		l[i] = nil
	}
	*latch = out
}

// squashRenamed kills one renamed in-flight instruction (IQ, register-read,
// or executing) and rolls back its rename allocation.
func (p *Processor) squashRenamed(d *dyn, th *threadState) {
	p.restoreCheckpoints(d, th)
	p.noteLowConfDone(d)
	if d.inIQ {
		th.icount--
		if d.isControl() {
			th.brcount--
		}
		d.inIQ = false
	}
	if d.destPhys != rename.None {
		f := p.ren.FileFor(d.si.Dest)
		p.setProducer(f, d.destPhys, nil)
		f.Rollback(th.id, d.si.Dest.Index(), d.destPhys, d.oldPhys)
	}
	d.state = stSquashed
	p.stats.SquashedInstructions++
	p.maybeRelease(d)
}

// restoreCheckpoints undoes speculative predictor state (global history,
// return stack) captured at fetch. Callers walk youngest-first, which the
// checkpoint protocol requires.
func (p *Processor) restoreCheckpoints(d *dyn, th *threadState) {
	if d.hasRasCP {
		p.pred.RestoreRAS(th.id, d.rasCP)
	}
	if d.hasGhrCP {
		p.pred.RestoreHistory(th.id, d.ghrCP)
	}
}

// cleanupQueues drops squashed and released entries from both queues. It
// runs in processEvents, ahead of the issue stage that resets and refills
// the two index buffers, so it borrows them.
func (p *Processor) cleanupQueues() {
	p.idxBuf = dropDead(p.intQ, p.idxBuf[:0])
	p.fpIdxBuf = dropDead(p.fpQ, p.fpIdxBuf[:0])
}

// dropDead removes q's squashed and released entries, collecting their
// positions in idx (returned for reuse). Finding them is a read-only pass,
// so a queue that holds none — the FP queue on most calls — is not written.
func dropDead(q *iq.Queue[*dyn], idx []int) []int {
	for i, d := range q.All() {
		if d.state == stSquashed || !d.inIQ {
			idx = append(idx, i)
		}
	}
	q.RemoveIndices(idx)
	return idx
}

// maybeRelease returns a dead instruction to the pool once no events still
// reference it.
func (p *Processor) maybeRelease(d *dyn) {
	if d.state == stSquashed && d.pendingEvts == 0 {
		p.pool.put(d)
	}
}

// removeStore deletes a store from the thread's disambiguation list.
func (th *threadState) removeStore(d *dyn) {
	for i, s := range th.stores {
		if s == d {
			th.stores = append(th.stores[:i], th.stores[i+1:]...)
			return
		}
	}
}

// removeCtl deletes a resolved control instruction from the in-flight list.
func (th *threadState) removeCtl(d *dyn) {
	for i, c := range th.ctlFlight {
		if c == d {
			th.ctlFlight = append(th.ctlFlight[:i], th.ctlFlight[i+1:]...)
			return
		}
	}
}

// truncateAux drops squashed instructions from the disambiguation and
// control lists.
func (th *threadState) truncateAux(seq int64) {
	stores := th.stores[:0]
	for _, s := range th.stores {
		if s.seq <= seq {
			stores = append(stores, s)
		}
	}
	for i := len(stores); i < len(th.stores); i++ {
		th.stores[i] = nil
	}
	th.stores = stores

	ctl := th.ctlFlight[:0]
	for _, c := range th.ctlFlight {
		if c.seq <= seq {
			ctl = append(ctl, c)
		}
	}
	for i := len(ctl); i < len(th.ctlFlight); i++ {
		th.ctlFlight[i] = nil
	}
	th.ctlFlight = ctl
}
