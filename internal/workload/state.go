package workload

import "repro/internal/state"

// State walks the walker's position in its program's architectural
// execution. All of the Walker's randomness is stateless (rng.Hash over the
// program seed), so these cursors are the entire state: reading them onto a
// fresh Walker over the same Program reproduces the identical record
// stream, bit for bit. The per-branch and per-memory-op arrays must match
// the program's shape; none of the values is used as an index.
func (w *Walker) State(c *state.Codec) {
	state.Int(c, &w.pc)
	state.Count(c, &w.seq)
	state.Slice(c, &w.callStack, maxCallDepth+8, "call stack", state.Int[int64])
	state.Fixed(c, w.loopRem, "loop counters", state.Int[int32])
	state.Fixed(c, w.entrySeq, "branch encounter counts", state.Int[uint32])
	state.Fixed(c, w.memState, "memory-op cursors", state.Int[int64])
}
