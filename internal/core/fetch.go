package core

import (
	"fmt"

	"repro/internal/isa"
)

// fetchStage implements the fetch unit: thread selection under the
// configured policy and partitioning scheme (alg.num1.num2), I-cache access
// with bank-conflict logic, per-instruction branch prediction, wrong-path
// following, and the ITAG early-tag-lookup option.
func (p *Processor) fetchStage() {
	// The fetch unit delivers into the decode latch; if decode has not
	// drained (IQ-full back-pressure), every fetch opportunity is lost —
	// the paper's "IQ clog restricts fetch throughput".
	if len(p.decodeLatch) > 0 {
		p.stats.FetchLostBackPressure++
		return
	}

	fb := p.buildFeedback()
	order := p.fetchPol.Order(p.rrBase, fb, p.orderBuf)
	p.orderBuf = order
	p.rrBase++

	picks := p.pickBuf // len FetchThreads: the loop stops at that many picks
	nPicks := 0
	usedBanks := uint32(0)
	fillBusy := false
	for _, t := range order {
		if nPicks >= p.cfg.FetchThreads {
			break
		}
		th := p.threads[t]
		if p.cycle < th.fetchBlockedUntil || p.cycle < th.imissUntil {
			continue // stalled: misfetch bubble or known I-cache miss
		}
		bank := p.mem.InstrBank(th.fetchPC)
		if usedBanks&(1<<uint(bank)) != 0 {
			continue // I-cache bank conflict with a higher-priority thread
		}
		if p.mem.InstrBankBusy(p.cycle, th.fetchPC) {
			fillBusy = true
			continue // bank busy with a cache fill
		}
		if p.cfg.ITAG {
			// Early tag lookup: skip threads that would miss, but still
			// start their miss immediately (Section 5.3).
			if !p.mem.ProbeInstr(th.fetchPC) {
				r := p.mem.AccessInstr(p.cycle, th.fetchPC)
				th.imissUntil = r.Done
				p.stats.ICacheMissStalls++
				continue
			}
		}
		picks[nPicks] = th
		nPicks++
		usedBanks |= 1 << uint(bank)
	}

	if nPicks == 0 {
		// A thread that wanted to fetch but found its bank occupied by a
		// cache fill is a bank-conflict loss, not an idle machine.
		if fillBusy {
			p.stats.FetchLostBankConflict++
		} else {
			p.stats.FetchLostNoThread++
		}
		return
	}

	budget := p.cfg.FetchTotal
	fetchedAny := false
	missed, conflicted := false, false
	for i := 0; i < nPicks && budget > 0; i++ {
		th := picks[i]
		r := p.mem.AccessInstr(p.cycle, th.fetchPC)
		if r.BankConflict {
			conflicted = true
			continue // lost to a fill that started this cycle
		}
		if r.Miss {
			// Without ITAG the selected slot is simply lost this cycle.
			th.imissUntil = r.Done
			p.stats.ICacheMissStalls++
			missed = true
			continue
		}
		n := p.fetchThread(th, min(p.fetchLimit(th), budget))
		budget -= n
		if n > 0 {
			fetchedAny = true
		}
	}
	// Attribute the cycle to exactly one outcome so the per-cause counters
	// partition Cycles. A cycle losing picks to both causes charges the
	// I-miss: the miss stalls the thread for many cycles, the conflict only
	// this one.
	switch {
	case fetchedAny:
		p.stats.FetchCycles++
	case missed:
		p.stats.FetchLostIMiss++
	case conflicted:
		p.stats.FetchLostBankConflict++
	default:
		// Unreachable: FetchTotal >= 1 and nPicks >= 1 guarantee the loop
		// produced one of the outcomes above. Counted anyway so the
		// invariant (the counters partition Cycles) survives a logic bug.
		p.stats.FetchLostNoThread++
	}
}

// fetchLimit returns th's per-cycle fetch allotment. With VarFetchRate
// off (the default) it is the configured FetchPerThread. With it on, the
// allotment halves for every in-flight low-confidence branch the thread
// has outstanding — a thread speculating down k weakly-predicted paths
// fetches FetchPerThread>>k instructions (floor 1, so a context is never
// starved outright and can still resolve its way back to full rate).
func (p *Processor) fetchLimit(th *threadState) int {
	limit := p.cfg.FetchPerThread
	if !p.cfg.VarFetchRate {
		return limit
	}
	k := th.lowConfCount
	if k <= 0 {
		return limit
	}
	if k > 30 {
		k = 30 // clamp the shift; beyond this the floor applies anyway
	}
	scaled := limit >> uint(k)
	if scaled < 1 {
		scaled = 1
	}
	p.stats.VarFetchThrottled += int64(limit - scaled)
	return scaled
}

// fetchThread fetches up to limit instructions from one thread's PC,
// stopping at the fetch-block boundary (the 32-byte I-cache bank granule,
// which is also the output bus width), at a predicted-taken control
// transfer, or at a decode-redirect (misfetch). It returns the number of
// instructions delivered to the decode latch.
func (p *Processor) fetchThread(th *threadState, limit int) int {
	const blockBytes = 32 // 8 instructions: the cache output bus width
	pc := th.fetchPC
	blockEnd := (pc &^ (blockBytes - 1)) + blockBytes
	n := 0
	for n < limit && pc < blockEnd {
		d := p.newDyn(th, pc)
		p.decodeLatch = append(p.decodeLatch, d)
		th.icount++
		if d.isControl() {
			th.brcount++
		}
		p.stats.Fetched++
		if d.wrongPath {
			p.stats.FetchedWrongPath++
		}
		n++

		next, stop := p.predictNext(th, d)
		pc = next
		if stop {
			break
		}
	}
	th.fetchPC = pc
	return n
}

// newDyn creates the dynamic instance for the instruction at pc, consuming
// an oracle record when the thread is on its correct path.
func (p *Processor) newDyn(th *threadState, pc int64) *dyn {
	d := p.pool.get()
	d.thread = int32(th.id)
	d.seq = th.nextSeq
	th.nextSeq++
	d.pc = pc
	d.prog = th.prog
	d.si = th.prog.At(pc)
	d.fetchCycle = p.cycle
	d.age = d.computeAge()
	d.state = stFetched
	d.destPhys, d.oldPhys = -1, -1
	d.src1Phys, d.src2Phys = -1, -1

	if th.wrongPath {
		d.wrongPath = true
		if d.si.Class.IsMem() {
			th.wrongSalt++
			d.addr = th.prog.WrongPathAddr(d.si, th.wrongSalt)
		}
		return d
	}
	rec := th.feed.Next()
	if rec.PC != pc {
		panic(fmt.Sprintf("core: thread %d fetch at %#x but oracle expects %#x (seq %d)",
			th.id, pc, rec.PC, d.seq))
	}
	d.rec = rec
	d.addr = rec.Addr
	return d
}

// predictNext runs branch prediction for d (control instructions) and
// returns the next fetch PC and whether the fetch group must end. It flips
// the thread onto the wrong path when the prediction disagrees with the
// oracle, and applies decode-redirect (misfetch) bubbles.
func (p *Processor) predictNext(th *threadState, d *dyn) (next int64, stop bool) {
	cls := d.si.Class
	if !cls.IsControl() {
		return d.pc + isa.InstrBytes, false
	}

	if p.oracle && !d.wrongPath {
		// Oracle prediction: always right, no bubbles, no wrong paths.
		d.predTaken = d.rec.Taken
		d.predNextPC = d.rec.NextPC
		return d.rec.NextPC, d.rec.Taken && d.rec.NextPC != d.pc+isa.InstrBytes
	}

	fall := d.pc + isa.InstrBytes
	predTaken := true
	target := int64(0)
	haveTarget := false
	misfetch := false

	switch cls {
	case isa.ClassBranch:
		var conf bool
		predTaken, conf = p.pred.Direction(th.id, d.pc)
		d.ghrCP = p.pred.SpeculateHistory(th.id, predTaken)
		d.hasGhrCP = true
		if !conf {
			d.lowConf = true
			th.lowConfCount++
			p.stats.LowConfFetched[th.id]++
		}
		if predTaken {
			if t, ok := p.pred.Target(th.id, d.pc); ok {
				target, haveTarget = t, true
			} else {
				// Direction says taken but the BTB has no target: decode
				// computes it next cycle (misfetch, 2-cycle bubble).
				target, haveTarget = d.si.Target, true
				misfetch = true
			}
		}
	case isa.ClassJump:
		if t, ok := p.pred.Target(th.id, d.pc); ok {
			target, haveTarget = t, true
		} else {
			target, haveTarget = d.si.Target, true
			misfetch = true
		}
	case isa.ClassCall:
		if cp, ok := p.pred.PushReturn(th.id, fall); ok {
			d.rasCP, d.hasRasCP = cp, true
		}
		if t, ok := p.pred.Target(th.id, d.pc); ok {
			target, haveTarget = t, true
		} else {
			target, haveTarget = d.si.Target, true
			misfetch = true
		}
	case isa.ClassReturn:
		if t, ok, cp, hasCP := p.pred.Return(th.id, d.pc); ok {
			if hasCP {
				d.rasCP, d.hasRasCP = cp, true
			}
			target, haveTarget = t, true
		}
		// No prediction available: fall through (resolved at exec).
	case isa.ClassJumpInd:
		if t, ok := p.pred.Target(th.id, d.pc); ok {
			target, haveTarget = t, true
		}
		// No BTB entry: fall through until exec resolves the target.
	}

	d.predTaken = predTaken
	switch {
	case predTaken && haveTarget:
		d.predNextPC = target
	default:
		d.predNextPC = fall
	}

	if misfetch {
		p.stats.Misfetches++
		th.fetchBlockedUntil = p.cycle + p.cfg.misfetchPenalty()
		d.mispred = mispredDecode
	}

	// Compare against the oracle (correct path only): a disagreement sends
	// this thread down the wrong path until the branch resolves in exec.
	if !d.wrongPath {
		if d.predNextPC != d.rec.NextPC {
			d.mispred = mispredExec
			d.correctPC = d.rec.NextPC
			th.wrongPath = true
		}
	}

	next = d.predNextPC
	// The group always ends at a control transfer that redirects fetch, and
	// at misfetch bubbles. Not-taken predictions continue sequentially.
	stop = misfetch || d.predNextPC != fall
	return next, stop
}
