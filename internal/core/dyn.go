package core

import (
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/workload"
)

// dynState tracks where an in-flight instruction is in its life cycle.
type dynState uint8

const (
	stFetched  dynState = iota // in the decode latch
	stDecoded                  // in the rename latch
	stQueued                   // renamed, waiting in an instruction queue
	stIssued                   // issued: register read through completion to commit
	stSquashed                 // killed; released once events drain
)

// mispredKind classifies how a fetched control instruction's predicted next
// PC will be corrected.
type mispredKind uint8

const (
	mispredNone   mispredKind = iota
	mispredDecode             // misfetch: fixed at decode, 2-cycle bubble
	mispredExec               // fixed at branch resolution in exec
)

// dyn is one dynamic (in-flight) instruction. Instances are pooled.
type dyn struct {
	thread int32
	// wake names the source register ready last failed on: 0 for none,
	// phys+1 in the integer file, -(phys+1) in the FP file. While that
	// register still reads later than the current cycle the instruction
	// cannot issue, so the issue walk skips evaluating it (asleep). It is a
	// derived hint, always re-checked against the live register, and the zero
	// value is "awake": pooled and restored instructions need no set-up and
	// it is not checkpointed. It sits in the padding after thread.
	wake int32
	seq  int64 // per-thread fetch order
	pc   int64
	si   *isa.Static

	state     dynState
	wrongPath bool

	// Architectural outcome (correct path only).
	rec workload.DynRecord

	// Effective address for memory ops (oracle or synthesized wrong-path).
	addr int64

	// Renaming.
	destPhys, oldPhys  rename.PhysReg
	src1Phys, src2Phys rename.PhysReg

	// Branch prediction state captured at fetch.
	predTaken  bool
	lowConf    bool // low-confidence direction prediction, counted on its thread
	predNextPC int64
	mispred    mispredKind
	correctPC  int64 // redirect target on mispredExec
	ghrCP      uint32
	hasGhrCP   bool
	rasCP      branch.RASCheckpoint
	hasRasCP   bool

	// Timing.
	fetchCycle    int64
	age           int64 // cached globalAge key, fixed at fetch
	earliestIssue int64 // set when entering the IQ (queue-stage timing)
	issueCycle    int64
	execStart     int64
	doneCycle     int64 // commit-eligibility cycle

	inIQ        bool  // occupies an instruction-queue slot
	optimistic  bool  // issued on an optimistic load dependence
	memVerified bool  // load: hit/miss now known
	resolved    bool  // control: outcome resolved at exec
	pendingEvts int8  // events still referencing this instruction
	gen         int32 // issue generation; stale events carry an older value
	retried     int32 // load bank-conflict retries (stats)

	// optHeldListed is the membership bit for Processor.optHeld. It is the
	// source of truth: a list entry whose instruction has a clear bit is
	// stale (released, pulled back, or squashed-and-recycled) and is
	// dropped without action, which makes duplicate pointers harmless.
	optHeldListed bool

	// cls is si.Class, copied wherever si is set, so the stages that only
	// need the class do not load the static instruction. It sits in the
	// padding at the end and is derived, not checkpointed.
	cls isa.Class
}

// isLoad reports whether the instruction is a load.
func (d *dyn) isLoad() bool { return d.cls == isa.ClassLoad }

// isStore reports whether the instruction is a store.
func (d *dyn) isStore() bool { return d.cls == isa.ClassStore }

// isControl reports whether the instruction can redirect fetch.
func (d *dyn) isControl() bool { return d.cls.IsControl() }

// partialAddr returns the low bits of the effective address used for memory
// disambiguation.
func (d *dyn) partialAddr(bits int) int64 {
	return d.addr & (1<<uint(bits) - 1)
}

// globalAge orders instructions by fetch time for OLDEST_FIRST issue;
// within a cycle, lower thread/seq wins deterministically. The value is
// fixed at fetch, so newDyn computes it once into d.age and the issue
// stage's merge walk reads the cached copy.
func (d *dyn) globalAge() int64 {
	return d.age
}

// computeAge derives the fetch-order age key; callable only once thread,
// seq, and fetchCycle are set.
func (d *dyn) computeAge() int64 {
	return d.fetchCycle<<20 | int64(d.thread)<<14 | (d.seq & 0x3FFF)
}

// pool recycles dyn structs to keep the simulator allocation-free in
// steady state.
type pool struct {
	free []*dyn
}

func (p *pool) get() *dyn {
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free = p.free[:n-1]
		*d = dyn{}
		return d
	}
	// Pool refill, amortized to zero in steady state: recycled via put.
	return &dyn{}
}

func (p *pool) put(d *dyn) {
	p.free = append(p.free, d)
}
