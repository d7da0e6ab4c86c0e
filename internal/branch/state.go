package branch

import "repro/internal/state"

// State walks the predictor's complete state: BTB contents, per-thread
// history registers and return stacks (whose cursors must stay inside the
// stack), and the direction engine's counter tables. The return mode and
// engine kind are not walked — both are fixed by the predictor's registered
// name, which the checkpoint's configuration fingerprint already pins.
//
// ok is false, and nothing is walked, when the engine slot holds a custom
// DirEngine: its tables are opaque, so callers treat the predictor as
// "checkpointing unsupported" and run cold.
func (u *Unit) State(c *state.Codec) (ok bool) {
	tables, ok := u.dir.tables()
	if !ok {
		return false
	}
	state.Fixed(c, u.btb, "BTB", func(c *state.Codec, e *btbEntry) {
		c.Bool(&e.valid)
		state.Int(c, &e.thread)
		state.Int(c, &e.tag)
		state.Int(c, &e.target)
		state.Int(c, &e.lru)
	})
	state.Int(c, &u.lruTick)
	state.Fixed(c, u.history, "history registers", state.Int[uint32])
	state.Fixed(c, u.ras, "return stacks", func(c *state.Codec, s *retStack) {
		state.Fixed(c, s.data, "return stack", state.Int[int64])
		state.Index(c, &s.top, len(s.data))
		state.Index(c, &s.size, len(s.data)+1)
	})
	for _, t := range tables {
		state.Fixed(c, t, "direction counters", state.Int[uint8])
	}
	return true
}
