package core

import (
	"repro/internal/isa"
	"repro/internal/policy"
	"repro/internal/rename"
)

// candidate is one potentially-issuable queue entry, materialized only for
// issue policies that reorder the merged candidate stream. The struct
// is kept small (one pointer, one packed position, the policy-visible
// info) so collection is a handful of stores per entry.
type candidate struct {
	d      *dyn
	pos    int32 // position within its queue window
	fp     bool  // from the FP queue
	asleep bool  // audit only: would have been dropped before the walk
	info   policy.IssueInfo
}

// fuState tracks one cycle's functional-unit and issue-bandwidth
// occupancy during selection.
type fuState struct {
	intUsed, ldstUsed, fpUsed, total int
}

// issueStage selects and issues ready instructions from both queues under
// the configured issue policy and functional-unit constraints (Section 6).
//
// Readiness is evaluated live during the selection walk so that zero-latency
// producers (compares) can feed consumers issued in the same cycle, and
// one-cycle producers feed back-to-back dependents.
//
// The two queue windows are merged by a two-pointer walk on globalAge
// without a comparison sort. The merged stream keeps each queue's rename
// order, so it is not globalAge-sorted across threads fetched in the same
// cycle (see nextIssuable); it is the order every policy treats as
// oldest-first, and IssueInfo.Age is a candidate's rank in it.
// OLDEST_FIRST consumes that stream directly — no candidate list exists
// at all; every other policy materializes it once and reorders it with a
// (closure-free, stable) insertion sort under its Less.
func (p *Processor) issueStage() {
	p.idxBuf = p.idxBuf[:0]
	p.fpIdxBuf = p.fpIdxBuf[:0]

	var fu fuState
	if p.issuePol.Less == nil {
		// The merge walk visits each queue front to back, so its removal
		// positions are already ascending.
		p.issueOldestFirst(&fu)
	} else {
		// A reordering policy visits candidates in its own order, so
		// per-queue removal positions may be out of order; they are nearly
		// sorted (age order within each queue), which insertion sort
		// handles in ~n compares.
		p.issueReordered(&fu)
		insertionSortInts(p.idxBuf)
		insertionSortInts(p.fpIdxBuf)
	}
	p.intQ.RemoveIndices(p.idxBuf)
	p.fpQ.RemoveIndices(p.fpIdxBuf)
}

// ageInf is an age beyond any real instruction's, marking an exhausted
// queue window during the merge walk.
const ageInf = int64(1) << 62

// nextIssuable advances to the next entry at or after i that can compete
// for issue at the given cycle, returning its position and age (len(w),
// ageInf when the window is exhausted). Each entry's eligibility and age
// are evaluated exactly once per cycle this way — the merge loop never
// re-examines a head it already classified.
//
// Invariant: only issuable entries take part in the merge. A queue window
// is in rename order, which within one fetch cycle is fetch-priority order,
// while globalAge orders same-cycle instructions by thread id — so a window
// is not age-sorted across threads fetched together, and the order the
// two-pointer walk visits entries in depends on which entries are in it.
// Merging every entry and testing eligibility at each one's turn looks
// equivalent and is not: it passes the goldens and all 28 policy-pair
// hashes and moves icount28x8_none_vfr by 510 cycles in 954 940.
// exp's TestPathMatrix/core_matrix is the test that sees it.
func nextIssuable(w []*dyn, i int, cycle int64) (int, int64) {
	for ; i < len(w); i++ {
		d := w[i]
		if d.state == stQueued && d.earliestIssue <= cycle {
			return i, d.globalAge()
		}
	}
	return len(w), ageInf
}

// issueOldestFirst issues straight off the merged stream: the
// two queue windows are walked with two pointers and no candidate list is
// built (the default policy's hot path).
func (p *Processor) issueOldestFirst(fu *fuState) {
	intW := p.intQ.Window()
	fpW := p.fpQ.Window()
	ii, intAge := nextIssuable(intW, 0, p.cycle)
	fi, fpAge := nextIssuable(fpW, 0, p.cycle)
	for intAge != ageInf || fpAge != ageInf {
		if intAge <= fpAge {
			if d := intW[ii]; p.asleep(d) {
				if p.audit != nil {
					p.auditAsleep(d)
				}
			} else if full := p.tryIssue(d, ii, false, fu); full {
				return
			}
			ii, intAge = nextIssuable(intW, ii+1, p.cycle)
		} else {
			if d := fpW[fi]; p.asleep(d) {
				if p.audit != nil {
					p.auditAsleep(d)
				}
			} else if full := p.tryIssue(d, fi, true, fu); full {
				return
			}
			fi, fpAge = nextIssuable(fpW, fi+1, p.cycle)
		}
	}
}

// issueReordered materializes the merged candidate list, fills every
// IssueInfo field, reorders it under the issue policy, and issues down it.
func (p *Processor) issueReordered(fu *fuState) {
	cands := p.candBuf[:0]
	intW := p.intQ.Window()
	fpW := p.fpQ.Window()
	ii, intAge := nextIssuable(intW, 0, p.cycle)
	fi, fpAge := nextIssuable(fpW, 0, p.cycle)
	for intAge != ageInf || fpAge != ageInf {
		var d *dyn
		var pos int
		var fp bool
		if intAge <= fpAge {
			d, pos, fp = intW[ii], ii, false
			ii, intAge = nextIssuable(intW, ii+1, p.cycle)
		} else {
			d, pos, fp = fpW[fi], fi, true
			fi, fpAge = nextIssuable(fpW, fi+1, p.cycle)
		}
		// An entry that cannot wake during this walk never issues in it, so
		// it need not be snapshotted, sorted or visited: dropping it
		// leaves every other candidate's relative order as it was.
		sleeps := p.sleepsThroughWalk(d)
		if sleeps && p.audit == nil {
			continue
		}
		c := candidate{d: d, pos: int32(pos), fp: fp, asleep: sleeps}
		// The rank in the merged stream, not globalAge (see issueStage):
		// a Less that breaks ties on Age then keeps the built-ins' order.
		c.info.Age = int64(len(cands))
		c.info.Branch = d.isControl()
		// The policy orders on the optimism estimate at selection time
		// (OPT_LAST among the built-ins); it must be snapshotted before any
		// issue this cycle changes a source register's risk.
		c.info.Optimistic = p.srcsAtRisk(d)
		// ctlFlight is the thread's unresolved control instructions in
		// program order, so its head is the oldest one.
		if ctl := p.threads[d.thread].ctlFlight; len(ctl) > 0 {
			c.info.Speculative = ctl[0].seq < d.seq
		}
		if p.audit != nil {
			p.auditSpeculative(d, c.info.Speculative)
		}
		cands = append(cands, c)
	}
	p.candBuf = cands

	// A stable insertion sort keeps candidates Less does not separate in
	// stream order — the same permutation sort.SliceStable produces —
	// without its per-call closure and reflection-swapper allocations. A
	// boolean Less (the paper's OPT_LAST, SPEC_LAST, BRANCH_FIRST) is thus
	// a stable partition of the stream.
	less := p.issuePol.Less
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && less(c.info, cands[j-1].info) {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}

	for i := range cands {
		c := &cands[i]
		if c.asleep {
			p.auditAsleep(c.d)
			continue
		}
		if p.asleep(c.d) {
			if p.audit != nil {
				p.auditAsleep(c.d)
			}
			continue
		}
		if full := p.tryIssue(c.d, int(c.pos), c.fp, fu); full {
			return
		}
	}
}

// tryIssue attempts to issue one awake candidate under the cycle's
// remaining functional-unit and bandwidth budget. It reports whether the
// cycle's issue bandwidth is exhausted (the caller stops walking
// candidates).
//
// The walks test asleep first, inline, and call tryIssue only for an awake
// entry: asleep is the cheapest refusal (it does not touch the static
// instruction), and everything tryIssue does answers "not issued" for an
// entry ready would refuse. So passing an asleep entry over before the
// bandwidth test changes no outcome: a walk whose bandwidth is spent stops
// at its next awake entry instead.
func (p *Processor) tryIssue(d *dyn, pos int, fromFP bool, fu *fuState) (full bool) {
	if !p.cfg.InfiniteFUs && fu.total >= p.cfg.IssueWidth {
		return true
	}
	cls := d.cls
	if !p.cfg.InfiniteFUs {
		switch {
		case cls.IsFP():
			if fu.fpUsed >= p.cfg.FPUnits {
				return false
			}
		case cls.IsMem():
			if fu.ldstUsed >= p.cfg.LdStUnits || fu.intUsed >= p.cfg.IntUnits {
				return false
			}
		default:
			if fu.intUsed >= p.cfg.IntUnits {
				return false
			}
		}
	}
	ready, optimistic := p.ready(d)
	if !ready {
		return false
	}
	p.issueOne(d, optimistic)
	if !optimistic {
		// Optimistic issues are held in the IQ until their load producers
		// verify (Section 2's "held in the IQ an extra cycle after they are
		// issued"); everything else frees its slot now.
		d.inIQ = false
		p.threads[d.thread].occupy(d, -1)
		if fromFP {
			p.fpIdxBuf = append(p.fpIdxBuf, pos)
		} else {
			p.idxBuf = append(p.idxBuf, pos)
		}
	}
	fu.total++
	switch {
	case cls.IsFP():
		fu.fpUsed++
	case cls.IsMem():
		fu.ldstUsed++
		fu.intUsed++
	default:
		fu.intUsed++
	}
	return false
}

// ready decides whether d can issue this cycle, and whether doing so is
// optimistic (some source comes from a load whose hit/miss is unknown).
func (p *Processor) ready(d *dyn) (ok, optimistic bool) {
	th := p.threads[d.thread]
	s := d.si
	blocked, risk1 := p.source(d, s.Src1, d.src1Phys)
	if blocked {
		return false, false
	}
	blocked, risk2 := p.source(d, s.Src2, d.src2Phys)
	if blocked {
		return false, false
	}
	optimistic = risk1 || risk2

	// Memory disambiguation: a load may not issue past an older unexecuted
	// store of its thread whose partial (10-bit) address matches.
	if d.isLoad() {
		pa := d.partialAddr(p.cfg.DisambigBits)
		for _, st := range th.stores {
			if st.seq < d.seq && st.partialAddr(p.cfg.DisambigBits) == pa {
				return false, false
			}
		}
	}

	// Speculation restrictions (Section 7).
	switch p.cfg.SpecMode {
	case SpecNoPassBranch:
		for _, c := range th.ctlFlight {
			if c.seq < d.seq && c.state < stIssued {
				return false, false
			}
		}
	case SpecNoWrongPath:
		// Every older control instruction, resolved or not: one leaves
		// ctlFlight when it resolves, before its mispredict squash lands.
		for _, c := range th.liveROB() {
			if c.seq >= d.seq {
				break
			}
			if c.isControl() && (c.state < stIssued || p.cycle < c.issueCycle+4) {
				return false, false
			}
		}
	}
	return true, optimistic
}

// source checks one source operand of d: whether it reads later than now
// (blocked, and d sleeps on it: wake is phys+1 in the integer file,
// -(phys+1) in the FP file), or whether reading it now is optimistic.
func (p *Processor) source(d *dyn, reg isa.Reg, phys rename.PhysReg) (blocked, risky bool) {
	if !reg.Valid() || phys == rename.None {
		return false, false // no operand, or none mapped: always ready
	}
	f, wake := p.ren.Int, int32(phys)+1
	if reg.IsFP() {
		f, wake = p.ren.FP, -wake
	}
	if f.ReadyAt(phys) > p.cycle {
		d.wake = wake
		return true, false
	}
	return false, f.AtRisk(phys)
}

// blocker decodes d.wake into the register it names (nil file for none).
func (p *Processor) blocker(d *dyn) (*rename.File, rename.PhysReg) {
	switch w := d.wake; {
	case w > 0:
		return p.ren.Int, rename.PhysReg(w - 1)
	case w < 0:
		return p.ren.FP, rename.PhysReg(-w - 1)
	}
	return nil, rename.None
}

// asleep reports whether the source ready last failed on still reads later
// than now — in which case ready would fail on it again. The register is
// re-read live, so a zero-latency producer issued earlier in the same walk
// wakes its consumer this cycle, and no assumption about how ready times
// move is needed for tryIssue's use of it.
func (p *Processor) asleep(d *dyn) bool {
	f, phys := p.blocker(d)
	return f != nil && f.ReadyAt(phys) > p.cycle
}

// sleepsThroughWalk is asleep decided before the issue walk for all of it:
// the blocker must also be unable to become ready while the walk runs.
// During a walk ready times change only in issueOne, NotReady to issue
// cycle + latency, so a finite future time stands (corrections happen in
// processEvents), and an unscheduled register stays blocked unless its
// producer is instant, of a zero-latency class (a compare delivers in its
// own issue cycle; a load's optimistic schedule is the next cycle).
func (p *Processor) sleepsThroughWalk(d *dyn) bool {
	f, phys := p.blocker(d)
	if f == nil {
		return false
	}
	at := f.ReadyAt(phys)
	if at <= p.cycle {
		return false
	}
	return at != rename.NotReady || !f.Instant(phys)
}

// auditAsleep runs behind the test-only audit hook: d is being skipped as
// asleep, so ready must refuse it.
func (p *Processor) auditAsleep(d *dyn) {
	wake := d.wake
	ok, _ := p.ready(d)
	d.wake = wake
	if ok {
		p.audit(d, "skipped as asleep, but ready to issue")
	}
}

// auditSpeculative runs behind the test-only audit hook: d's Speculative
// flag must say what a walk of its thread's live ROB finds, whether an
// older control instruction is unresolved.
func (p *Processor) auditSpeculative(d *dyn, spec bool) {
	behind := false
	for _, x := range p.threads[d.thread].liveROB() {
		if x.seq >= d.seq {
			break
		}
		behind = behind || x.isControl() && !x.resolved
	}
	if spec != behind {
		p.audit(d, "Speculative flag disagrees with the live ROB")
	}
}

// issueOne performs the issue bookkeeping for d.
func (p *Processor) issueOne(d *dyn, optimistic bool) {
	d.state = stIssued
	d.issueCycle = p.cycle
	d.optimistic = optimistic
	d.execStart = p.cycle + p.cfg.execOffset()
	p.stats.Issued++
	if d.wrongPath {
		p.stats.IssuedWrongPath++
	}
	if optimistic && !d.optHeldListed {
		d.optHeldListed = true
		p.optHeld = append(p.optHeld, d)
	}
	p.noteRisk(d)

	cls := d.cls
	lat := int64(cls.Latency())
	switch {
	case cls.IsMem():
		// Hit/miss unknown until the D-cache access at execStart; schedule
		// the result optimistically (load-hit latency 1).
		if cls == isa.ClassLoad && d.destPhys >= 0 {
			p.ren.FileFor(d.si.Dest).SetReady(d.destPhys, p.cycle+1)
		}
		p.events.schedule(d.execStart, evMemExec, d, d.thread)
	default:
		if d.destPhys >= 0 {
			p.ren.FileFor(d.si.Dest).SetReady(d.destPhys, p.cycle+lat)
		}
		execEnd := d.execStart + max(lat, 1) - 1
		d.doneCycle = execEnd + p.cfg.commitDelay()
		if d.isControl() {
			p.events.schedule(execEnd, evResolve, d, d.thread)
		}
	}
}

// insertionSortInts sorts a small, nearly-sorted index list in place
// (ascending) without sort.Ints' interface conversions.
func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for j > 0 && v < s[j-1] {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
	}
}
