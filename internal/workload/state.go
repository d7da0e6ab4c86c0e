package workload

import "fmt"

// WalkerState is the complete serializable position of a Walker (or a
// Cursor) in its program's architectural execution. All of the
// Walker's randomness is stateless (rng.Hash over the program seed), so
// these mutable cursors are the entire state: restoring them onto a fresh
// Walker over the same Program reproduces the identical record stream,
// bit for bit.
type WalkerState struct {
	PC        int64    `json:"pc"`
	Seq       uint64   `json:"seq"`
	CallStack []int64  `json:"call_stack"`
	LoopRem   []int32  `json:"loop_rem"`
	EntrySeq  []uint32 `json:"entry_seq"`
	MemState  []int64  `json:"mem_state"`
}

// State returns a deep copy of the walker's current position.
func (w *Walker) State() WalkerState {
	s := WalkerState{
		PC:        w.pc,
		Seq:       w.seq,
		CallStack: make([]int64, len(w.callStack)),
		LoopRem:   make([]int32, len(w.loopRem)),
		EntrySeq:  make([]uint32, len(w.entrySeq)),
		MemState:  make([]int64, len(w.memState)),
	}
	copy(s.CallStack, w.callStack)
	copy(s.LoopRem, w.loopRem)
	copy(s.EntrySeq, w.entrySeq)
	copy(s.MemState, w.memState)
	return s
}

// SetState repositions the walker to a previously captured state. The
// state must have been captured from a walker over a program with the
// same shape (branch and memory-op counts); anything else is a corrupt
// or mismatched snapshot and is rejected.
func (w *Walker) SetState(s WalkerState) error {
	if len(s.LoopRem) != w.prog.NumBranches || len(s.EntrySeq) != w.prog.NumBranches {
		return fmt.Errorf("workload: state branch arrays (%d/%d) do not match program %q (%d branches)",
			len(s.LoopRem), len(s.EntrySeq), w.prog.Name, w.prog.NumBranches)
	}
	if len(s.MemState) != w.prog.NumMemOps {
		return fmt.Errorf("workload: state mem array (%d) does not match program %q (%d mem ops)",
			len(s.MemState), w.prog.Name, w.prog.NumMemOps)
	}
	w.pc = s.PC
	w.seq = s.Seq
	w.callStack = append(w.callStack[:0], s.CallStack...)
	copy(w.loopRem, s.LoopRem)
	copy(w.entrySeq, s.EntrySeq)
	copy(w.memState, s.MemState)
	return nil
}
