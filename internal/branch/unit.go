package branch

import (
	"repro/internal/isa"
)

// retMode selects a predictor's return-prediction behaviour (the
// SCOoOTER none/RAS/BTB menu).
type retMode uint8

const (
	retFull    retMode = iota // pop the RAS, fall back to the BTB on empty
	retRASOnly                // pop the RAS only; empty predicts nothing
	retNone                   // no return prediction at all
)

// btbEntry is one BTB way: a (thread, tag) pair and the predicted target.
// The thread id in each entry is one of the paper's explicit SMT additions.
type btbEntry struct {
	valid  bool
	thread uint8
	tag    uint64
	target int64
	lru    uint32
}

// retStack is a fixed-size circular return stack. Overflow overwrites the
// oldest entry; underflow yields a garbage (zero) prediction, as in hardware.
type retStack struct {
	data []int64
	top  int // index of the next free slot
	size int // live entries, capped at len(data)
}

// RASCheckpoint captures enough return-stack state to undo one push or pop.
type RASCheckpoint struct {
	Top   int
	Size  int
	Saved int64
}

// Unit is a branch predictor: the standard prediction frame every
// registered name shares — the thread-tagged BTB, per-thread history
// registers and return stacks — with the conditional-direction policy
// delegated to a dirEngine and return prediction to a retMode.
//
// Every method is deterministic and allocation-free: the fetch stage calls
// Direction/Target/Return every cycle on the simulator's zero-allocation
// hot path. thread is always in [0, threads) of New.
type Unit struct {
	cfg     Config
	sets    int
	setMask uint64
	btb     []btbEntry // sets * assoc, way-major within a set
	history []uint32   // per-thread global history register
	ras     []retStack // per-thread return stacks
	lruTick uint32
	dir     dirEngine
	ret     retMode
}

// newUnit builds the shared frame around a direction engine.
func newUnit(cfg Config, threads int, dir dirEngine, ret retMode) *Unit {
	sets := cfg.BTBEntries / cfg.BTBAssoc
	u := &Unit{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		btb:     make([]btbEntry, cfg.BTBEntries),
		history: make([]uint32, threads),
		ras:     make([]retStack, threads),
		dir:     dir,
		ret:     ret,
	}
	for t := range u.ras {
		u.ras[t] = retStack{data: make([]int64, cfg.RASEntries)}
	}
	return u
}

// Direction predicts taken/not-taken for a conditional branch at pc, along
// with a confidence estimate. A low-confidence prediction feeds the
// variable-fetch-rate throttle; engines without a meaningful estimator
// report confident=false.
func (u *Unit) Direction(thread int, pc int64) (taken, confident bool) {
	return u.dir.predict(u, thread, pc)
}

// Target looks up the BTB for (thread, pc); ok is false on a miss.
func (u *Unit) Target(thread int, pc int64) (target int64, ok bool) {
	set, tag := u.btbSetTag(pc)
	base := set * u.cfg.BTBAssoc
	for w := 0; w < u.cfg.BTBAssoc; w++ {
		e := &u.btb[base+w]
		if e.valid && e.thread == uint8(thread) && e.tag == tag {
			u.lruTick++
			e.lru = u.lruTick
			return e.target, true
		}
	}
	return 0, false
}

// peekTarget is Target without the LRU touch: a probe for direction
// engines (static's backward/forward test) that must not perturb the BTB
// replacement state the real lookup will see.
func (u *Unit) peekTarget(thread int, pc int64) (target int64, ok bool) {
	set, tag := u.btbSetTag(pc)
	base := set * u.cfg.BTBAssoc
	for w := 0; w < u.cfg.BTBAssoc; w++ {
		e := &u.btb[base+w]
		if e.valid && e.thread == uint8(thread) && e.tag == tag {
			return e.target, true
		}
	}
	return 0, false
}

func (u *Unit) btbSetTag(pc int64) (set int, tag uint64) {
	line := uint64(pc) >> 2
	return int(line & u.setMask), line >> uint(log2(u.sets))
}

// SpeculateHistory shifts the predicted outcome of a conditional branch into
// the thread's global history register at fetch time, returning the previous
// value so the caller can checkpoint it for squash recovery.
func (u *Unit) SpeculateHistory(thread int, taken bool) (checkpoint uint32) {
	checkpoint = u.history[thread]
	h := checkpoint << 1
	if taken {
		h |= 1
	}
	if u.cfg.HistoryLen < 32 {
		h &= (1 << uint(u.cfg.HistoryLen)) - 1
	}
	u.history[thread] = h
	return checkpoint
}

// RestoreHistory rolls the thread's global history back to a checkpoint
// taken by SpeculateHistory (used when squashing wrong-path instructions).
func (u *Unit) RestoreHistory(thread int, checkpoint uint32) {
	u.history[thread] = checkpoint
}

// Update trains the predictor at branch commit: the direction engine moves
// toward the actual direction and, for taken control transfers, the BTB
// learns the target. history is the pre-branch history checkpoint, so
// training uses the same index the prediction used.
func (u *Unit) Update(thread int, pc int64, class isa.Class, taken bool, target int64, history uint32) {
	if class.IsCondBranch() {
		u.dir.update(u, thread, pc, taken, history)
	}
	if taken && class.IsControl() {
		u.installBTB(thread, pc, target)
	}
}

// installBTB inserts or refreshes a BTB entry, evicting the LRU way.
func (u *Unit) installBTB(thread int, pc, target int64) {
	set, tag := u.btbSetTag(pc)
	base := set * u.cfg.BTBAssoc
	victim := base
	u.lruTick++
	for w := 0; w < u.cfg.BTBAssoc; w++ {
		e := &u.btb[base+w]
		if e.valid && e.thread == uint8(thread) && e.tag == tag {
			e.target = target
			e.lru = u.lruTick
			return
		}
		if !e.valid {
			victim = base + w
		} else if u.btb[victim].valid && e.lru < u.btb[victim].lru {
			victim = base + w
		}
	}
	u.btb[victim] = btbEntry{valid: true, thread: uint8(thread), tag: tag, target: target, lru: u.lruTick}
}

// PushReturn records a call's return address on the thread's return stack
// (at fetch time). ok is false under retNone; otherwise the checkpoint
// undoes the push on a squash.
func (u *Unit) PushReturn(thread int, returnPC int64) (RASCheckpoint, bool) {
	if u.ret == retNone {
		return RASCheckpoint{}, false
	}
	s := &u.ras[thread]
	cp := RASCheckpoint{Top: s.top, Size: s.size, Saved: s.data[s.top]}
	s.data[s.top] = returnPC
	s.top = (s.top + 1) % len(s.data)
	if s.size < len(s.data) {
		s.size++
	}
	return cp, true
}

// Return predicts a return target: pop the return stack (hasCP reports a
// checkpointed pop), falling back to the BTB under retFull when the stack
// is empty. ok is false when no prediction is available (the core falls
// through until exec resolves the target).
func (u *Unit) Return(thread int, pc int64) (target int64, ok bool, cp RASCheckpoint, hasCP bool) {
	if u.ret != retNone {
		if t, popped, popCP := u.popReturn(thread); popped {
			return t, true, popCP, true
		}
	}
	if u.ret == retFull {
		if t, hit := u.Target(thread, pc); hit {
			return t, true, RASCheckpoint{}, false
		}
	}
	return 0, false, RASCheckpoint{}, false
}

// popReturn pops the thread's return stack; popped is false (and nothing
// changes) when the stack is empty.
func (u *Unit) popReturn(thread int) (target int64, popped bool, cp RASCheckpoint) {
	s := &u.ras[thread]
	cp = RASCheckpoint{Top: s.top, Size: s.size}
	if s.size == 0 {
		return 0, false, cp
	}
	s.top = (s.top - 1 + len(s.data)) % len(s.data)
	cp.Saved = s.data[s.top]
	s.size--
	return s.data[s.top], true, cp
}

// RestoreRAS undoes a single push or pop using its checkpoint. Checkpoints
// must be restored in reverse order of creation (the squash walk is
// youngest-first, which satisfies this).
func (u *Unit) RestoreRAS(thread int, cp RASCheckpoint) {
	s := &u.ras[thread]
	// Undo a push: the checkpointed top slot had Saved in it.
	// Undo a pop: the popped slot gets its value back. Both reduce to
	// restoring top/size and re-writing the saved slot value.
	if cp.Top != s.top || cp.Size != s.size {
		restoreSlot := cp.Top
		if cp.Size > s.size { // undoing a pop: slot below checkpointed top
			restoreSlot = (cp.Top - 1 + len(s.data)) % len(s.data)
		}
		s.data[restoreSlot] = cp.Saved
		s.top, s.size = cp.Top, cp.Size
	}
}
