package core

// decodeStage moves a fetched group into the rename latch. It models a
// single-group decode stage: the move happens only when the rename latch
// has fully drained, and only for instructions fetched on an earlier cycle.
func (p *Processor) decodeStage() {
	if len(p.renameLatch) > 0 || len(p.decodeLatch) == 0 {
		return
	}
	if p.decodeLatch[0].fetchCycle >= p.cycle {
		return // fetched this cycle; decode happens next cycle
	}
	for _, d := range p.decodeLatch {
		d.state = stDecoded
	}
	// The rename latch is empty (checked above), so the whole group moves
	// by swapping slice headers; both backing arrays are reused forever.
	p.renameLatch, p.decodeLatch = p.decodeLatch, p.renameLatch[:0]
}

// renameStage renames instructions from the rename latch and inserts them
// into the instruction queues (the paper's Rename and Queue stages). It
// stops at the first stall — a full queue or an empty free list — leaving
// the remainder for the next cycle; the stall back-pressures decode and
// fetch.
func (p *Processor) renameStage() {
	intFull, fpFull, outOfRegs := false, false, false
	consumed := 0
	// Everything in the rename latch was decoded on an earlier cycle:
	// renameStage runs before decodeStage within Step, so a group placed by
	// decode is renamed one cycle later.
	for _, d := range p.renameLatch {
		q := p.intQ
		if d.cls.IsFP() {
			q = p.fpQ
		}
		if q.Full() {
			if q == p.intQ {
				intFull = true
			} else {
				fpFull = true
			}
			break
		}
		if d.si.Dest.Valid() && !p.ren.CanAllocate(d.si.Dest) {
			outOfRegs = true
			break
		}
		p.renameOne(d)
		if !q.Push(d) {
			panic("core: queue insert failed after Full check")
		}
		d.inIQ = true
		d.state = stQueued
		d.earliestIssue = p.cycle + 1 // queue stage is the next cycle
		consumed++
	}
	p.renameLatch = p.renameLatch[:copy(p.renameLatch, p.renameLatch[consumed:])]

	if intFull {
		p.stats.IntIQFullCycles++
	}
	if fpFull {
		p.stats.FPIQFullCycles++
	}
	if outOfRegs {
		p.stats.OutOfRegCycles++
	}
}

// renameOne maps d's register operands through the rename tables and
// registers it in the thread's in-flight structures.
func (p *Processor) renameOne(d *dyn) {
	th := p.threads[d.thread]
	s := d.si

	d.src1Phys = p.ren.SrcPhys(th.id, s.Src1)
	d.src2Phys = p.ren.SrcPhys(th.id, s.Src2)
	if s.Dest.Valid() {
		f := p.ren.FileFor(s.Dest)
		dest, old, ok := f.Allocate(th.id, s.Dest.Index())
		if !ok {
			panic("core: allocation failed after CanAllocate")
		}
		d.destPhys, d.oldPhys = dest, old
		f.SetInstant(dest, d.cls.Latency() == 0)
	}

	th.rob = append(th.rob, d)
	if d.isStore() {
		th.stores = append(th.stores, d)
	}
	if d.isControl() {
		th.ctlFlight = append(th.ctlFlight, d)
	}
}
