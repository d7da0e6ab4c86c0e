package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rename"
)

// commitStage retires completed instructions in per-thread program order,
// up to CommitWidth per cycle across all threads (round-robin fairness).
// Commit frees the physical register displaced by each instruction's
// destination and trains the branch predictor — only correct-path
// instructions ever reach here.
func (p *Processor) commitStage() {
	budget := p.cfg.CommitWidth
	n := p.cfg.Threads
	for i := 0; i < n && budget > 0; i++ {
		th := p.threads[(p.commitRR+i)%n]
		for budget > 0 && th.robHead < len(th.rob) {
			d := th.rob[th.robHead]
			if !p.committable(d) {
				break
			}
			p.commitOne(th, d)
			th.rob[th.robHead] = nil
			th.robHead++
			budget--
		}
		th.compactROB()
	}
	p.commitRR++
}

// liveROB returns the in-flight instructions in fetch order (the slice
// view past the committed prefix).
func (th *threadState) liveROB() []*dyn { return th.rob[th.robHead:] }

// compactROB reclaims the committed prefix of the ROB slice. A drained
// ROB resets for free; otherwise the live tail slides down only once the
// dead prefix outgrows it, so the copy amortizes to O(1) per commit and
// the backing array cannot grow without bound.
func (th *threadState) compactROB() {
	switch {
	case th.robHead == 0:
	case th.robHead == len(th.rob):
		th.rob = th.rob[:0]
		th.robHead = 0
	case th.robHead >= 32 && th.robHead*2 >= len(th.rob):
		n := copy(th.rob, th.rob[th.robHead:])
		for i := n; i < len(th.rob); i++ {
			th.rob[i] = nil
		}
		th.rob = th.rob[:n]
		th.robHead = 0
	}
}

// committable reports whether the thread's oldest instruction has fully
// completed (including its RegWrite stage). The state check matters: an
// instruction pulled back to the queue by an optimistic-issue squash is not
// committable even though it once had a completion time.
func (p *Processor) committable(d *dyn) bool {
	return d.state == stIssued && d.doneCycle > 0 && p.cycle >= d.doneCycle &&
		(!d.isControl() || d.resolved)
}

// commitOne retires one instruction.
func (p *Processor) commitOne(th *threadState, d *dyn) {
	if d.wrongPath {
		panic(fmt.Sprintf("core: wrong-path instruction reached commit (thread %d seq %d)", th.id, d.seq))
	}
	p.stats.Committed++
	p.stats.CommittedByThread[th.id]++
	th.committed++
	if p.CommitHook != nil {
		p.CommitHook(th.id, d.pc)
	}

	if d.destPhys != rename.None {
		f := p.ren.FileFor(d.si.Dest)
		if p.producerFor(f, d.destPhys) == d {
			p.setProducer(f, d.destPhys, nil)
		}
		f.CommitFree(d.oldPhys)
	}

	if d.isControl() {
		p.trainPredictor(th, d)
	}

	if d.pendingEvts != 0 {
		panic(fmt.Sprintf("core: committing instruction with %d pending events", d.pendingEvts))
	}
	p.pool.put(d)
}

// trainPredictor updates the PHT/BTB at branch commit and accounts the
// paper's branch and jump misprediction rates.
func (p *Processor) trainPredictor(th *threadState, d *dyn) {
	cls := d.si.Class
	taken := d.rec.Taken
	target := d.rec.NextPC

	switch cls {
	case isa.ClassBranch:
		p.stats.CondBranches++
		if d.predTaken != taken {
			p.stats.CondMispredicts++
		}
	case isa.ClassJumpInd, isa.ClassReturn:
		p.stats.Jumps++
		if d.mispred == mispredExec {
			p.stats.JumpMispredicts++
		}
	}
	if !p.oracle {
		p.pred.Update(th.id, d.pc, cls, taken, target, d.ghrCP)
	}
}
