package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rename"
)

// TestNoExecutionBeforeLoadData: an instruction that reads a load's result
// begins executing no earlier than the cycle the value arrives. A load
// that hits the L1D behind a DTLB walk delivers its value when the walk
// ends, long after the 1-cycle optimistic schedule its dependents issued
// on, so it must move its destination's ready time and pull them back as
// a miss does. A two-entry DTLB makes such loads common: lines outlive
// their pages' entries.
func TestNoExecutionBeforeLoadData(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Mem.DTLB.Entries = 2
	p := MustNew(cfg, buildTraces(t, 2, 1))
	lateReads := 0
	for range 40_000 {
		p.Step()
		prods := producers(p)
		for _, th := range p.threads {
			for _, x := range th.liveROB() {
				if x.state != stIssued || x.execStart != p.cycle {
					continue // not starting execution this cycle
				}
				for _, src := range [2]struct {
					reg  isa.Reg
					phys rename.PhysReg
				}{{x.si.Src1, x.src1Phys}, {x.si.Src2, x.src2Phys}} {
					prod := prods.of(src.reg, src.phys)
					if prod == nil || !prod.isLoad() || !prod.memVerified {
						continue
					}
					arrives := prod.doneCycle - cfg.commitDelay()
					if arrives > prod.execStart+1 {
						lateReads++
					}
					if x.execStart < arrives {
						t.Fatalf("cycle %d: thread %d seq %d (%v) executes before its load producer seq %d's value arrives at %d",
							p.cycle, x.thread, x.seq, x.cls, prod.seq, arrives)
					}
				}
			}
		}
	}
	if lateReads == 0 {
		t.Fatal("no instruction read a load that delivered late: the check never ran")
	}
}
