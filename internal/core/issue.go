package core

import (
	"repro/internal/policy"
	"repro/internal/rename"
)

// candidate is one potentially-issuable queue entry, materialized only for
// issue policies that reorder the age-sorted candidate stream. The struct
// is kept small (one pointer, one packed position, the policy-visible
// info) so collection is a handful of stores per entry.
type candidate struct {
	d      *dyn
	pos    int32 // age position within its queue
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
// Each queue window is age-ordered, so the merged candidate stream is
// age-sorted by a two-pointer walk without a comparison sort. OLDEST_FIRST
// consumes that stream directly — no candidate list exists at all; the
// paper's non-default policies materialize it once and apply a stable O(n)
// boolean partition; only policies stating a full comparison pay for a
// (closure-free, stable) insertion sort.
func (p *Processor) issueStage() {
	p.idxBuf = p.idxBuf[:0]
	p.fpIdxBuf = p.fpIdxBuf[:0]

	// Oldest in-IQ unresolved control instruction per thread, for the
	// SPEC_LAST flag — computed only when the policy reads it.
	var specSeq []int64
	if p.issuePol.Needs.Speculative {
		specSeq = p.oldestQueuedCtl()
	}

	var fu fuState
	if p.issuePol.First == nil && p.issuePol.Less == nil {
		p.issueOldestFirst(&fu)
	} else {
		p.issueReordered(specSeq, &fu)
	}

	// Issue visits candidates in policy order, so per-queue removal
	// positions may be out of order; they are nearly sorted (age order
	// within each queue), which insertion sort handles in ~n compares.
	insertionSortInts(p.idxBuf)
	insertionSortInts(p.fpIdxBuf)
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

// issueOldestFirst issues straight off the merged age-ordered stream: the
// two queue windows are walked with two pointers and no candidate list is
// built (the default policy's hot path).
func (p *Processor) issueOldestFirst(fu *fuState) {
	intW := p.intQ.Window()
	fpW := p.fpQ.Window()
	ii, intAge := nextIssuable(intW, 0, p.cycle)
	fi, fpAge := nextIssuable(fpW, 0, p.cycle)
	for intAge != ageInf || fpAge != ageInf {
		if intAge <= fpAge {
			if full := p.tryIssue(intW[ii], ii, false, fu); full {
				return
			}
			ii, intAge = nextIssuable(intW, ii+1, p.cycle)
		} else {
			if full := p.tryIssue(fpW[fi], fi, true, fu); full {
				return
			}
			fi, fpAge = nextIssuable(fpW, fi+1, p.cycle)
		}
	}
}

// issueReordered materializes the age-ordered candidate list, reorders it
// under the issue policy, and issues down it.
func (p *Processor) issueReordered(specSeq []int64, fu *fuState) {
	needs := p.issuePol.Needs
	cands := p.candBuf[:0]
	intW := p.intQ.Window()
	fpW := p.fpQ.Window()
	ii, intAge := nextIssuable(intW, 0, p.cycle)
	fi, fpAge := nextIssuable(fpW, 0, p.cycle)
	for intAge != ageInf || fpAge != ageInf {
		var d *dyn
		var pos int
		var fp bool
		var age int64
		if intAge <= fpAge {
			d, pos, fp, age = intW[ii], ii, false, intAge
			ii, intAge = nextIssuable(intW, ii+1, p.cycle)
		} else {
			d, pos, fp, age = fpW[fi], fi, true, fpAge
			fi, fpAge = nextIssuable(fpW, fi+1, p.cycle)
		}
		// An entry that cannot wake during this walk never issues in it, so
		// it need not be snapshotted, partitioned or visited: dropping it
		// leaves every other candidate's relative order as it was.
		sleeps := p.sleepsThroughWalk(d)
		if sleeps && p.audit == nil {
			continue
		}
		c := candidate{d: d, pos: int32(pos), fp: fp, asleep: sleeps}
		c.info.Age = age
		if needs.Branch {
			c.info.Branch = d.isControl()
		}
		if needs.Speculative {
			c.info.Speculative = specSeq[d.thread] < d.seq
		}
		cands = append(cands, c)
	}
	p.candBuf = cands

	if needs.Optimistic {
		// The policy orders on the optimism estimate at selection time
		// (OPT_LAST among the built-ins); it must be snapshotted before any
		// issue this cycle changes producer states.
		for i := range cands {
			c := &cands[i]
			c.info.Optimistic = p.srcAtRisk(p.srcFile(c.d.si.Src1), c.d.src1Phys) ||
				p.srcAtRisk(p.srcFile(c.d.si.Src2), c.d.src2Phys)
		}
	}
	if first := p.issuePol.First; first != nil {
		// The paper's non-default policies: one stable boolean partition of
		// the age-sorted list, O(n).
		p.partBuf = partitionByFirst(cands, first, p.partBuf[:0])
	} else {
		// A policy stating a full comparison. A stable insertion sort keeps
		// equal candidates in age order — the same permutation
		// sort.SliceStable produced — without its per-call closure and
		// reflection-swapper allocations.
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
	}

	for i := range cands {
		c := &cands[i]
		if c.asleep {
			p.auditAsleep(c.d)
			continue
		}
		if full := p.tryIssue(c.d, int(c.pos), c.fp, fu); full {
			return
		}
	}
}

// tryIssue attempts to issue one candidate under the cycle's remaining
// functional-unit and bandwidth budget. It reports whether the cycle's
// issue bandwidth is exhausted (the caller stops walking candidates).
func (p *Processor) tryIssue(d *dyn, pos int, fromFP bool, fu *fuState) (full bool) {
	if !p.cfg.InfiniteFUs && fu.total >= p.cfg.IssueWidth {
		return true
	}
	// Asleep is tested first of what is left — everything below answers
	// false for an entry ready would refuse — and costs the least: it does
	// not touch the static instruction.
	if p.asleep(d) {
		if p.audit != nil {
			p.auditAsleep(d)
		}
		return false
	}
	if !p.cfg.InfiniteFUs {
		switch {
		case d.si.Class.IsFP():
			if fu.fpUsed >= p.cfg.FPUnits {
				return false
			}
		case d.si.Class.IsMem():
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
		p.threads[d.thread].icount--
		if d.isControl() {
			p.threads[d.thread].brcount--
		}
		if fromFP {
			p.fpIdxBuf = append(p.fpIdxBuf, pos)
		} else {
			p.idxBuf = append(p.idxBuf, pos)
		}
	}
	fu.total++
	switch {
	case d.si.Class.IsFP():
		fu.fpUsed++
	case d.si.Class.IsMem():
		fu.ldstUsed++
		fu.intUsed++
	default:
		fu.intUsed++
	}
	return false
}

// oldestQueuedCtl returns, per thread, the sequence number of the oldest
// unresolved control instruction still occupying an IQ slot (MaxInt64 when
// none).
func (p *Processor) oldestQueuedCtl() []int64 {
	if cap(p.specSeqBuf) < p.cfg.Threads {
		// Growth guard: fires once, then the buffer is reused every cycle.
		p.specSeqBuf = make([]int64, p.cfg.Threads)
	}
	s := p.specSeqBuf[:p.cfg.Threads]
	for i := range s {
		s[i] = 1<<63 - 1
	}
	for _, d := range p.intQ.All() {
		if d.isControl() && !d.resolved && d.seq < s[d.thread] {
			s[d.thread] = d.seq
		}
	}
	for _, d := range p.fpQ.All() {
		if d.isControl() && !d.resolved && d.seq < s[d.thread] {
			s[d.thread] = d.seq
		}
	}
	p.specSeqBuf = s
	return s
}

// ready decides whether d can issue this cycle, and whether doing so is
// optimistic (some source comes from a load whose hit/miss is unknown).
func (p *Processor) ready(d *dyn) (ok, optimistic bool) {
	th := p.threads[d.thread]

	for i := 0; i < 2; i++ {
		reg, phys := d.si.Src1, d.src1Phys
		if i == 1 {
			reg, phys = d.si.Src2, d.src2Phys
		}
		f := p.srcFile(reg)
		if f == nil {
			continue
		}
		if f.ReadyAt(phys) > p.cycle {
			d.wake = int32(phys) + 1
			if f == p.ren.FP {
				d.wake = -d.wake
			}
			return false, false
		}
		if p.srcAtRisk(f, phys) {
			optimistic = true
		}
	}

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
		for _, c := range th.ctlFlight {
			if c.seq < d.seq && (c.state < stIssued || p.cycle < c.issueCycle+4) {
				return false, false
			}
		}
	}
	return true, optimistic
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
// producer is a zero-latency class (a compare delivers in its own issue
// cycle; a load's optimistic schedule is the next cycle).
func (p *Processor) sleepsThroughWalk(d *dyn) bool {
	f, phys := p.blocker(d)
	if f == nil {
		return false
	}
	at := f.ReadyAt(phys)
	if at <= p.cycle {
		return false
	}
	if at != rename.NotReady {
		return true
	}
	prod := p.producerFor(f, phys)
	return prod != nil && prod.si.Class.Latency() > 0
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

	lat := int64(d.si.Class.Latency())
	switch {
	case d.si.Class.IsMem():
		// Hit/miss unknown until the D-cache access at execStart; schedule
		// the result optimistically (load-hit latency 1).
		if d.isLoad() && d.destPhys >= 0 {
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

// partitionByFirst stably reorders an age-sorted candidate list in place
// for policies whose order is a single boolean partition with oldest-first
// tie-breaking (Section 6's non-default policies). It returns the scratch
// buffer (grown as needed) for the caller to reuse; the scratch must not
// alias cands.
func partitionByFirst(cands []candidate, first func(policy.IssueInfo) bool, buf []candidate) []candidate {
	out := buf
	for i := range cands {
		if first(cands[i].info) {
			out = append(out, cands[i])
		}
	}
	for i := range cands {
		if !first(cands[i].info) {
			out = append(out, cands[i])
		}
	}
	copy(cands, out)
	return out
}
