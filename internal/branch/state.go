package branch

import "repro/internal/state"

// State walks a predictor's complete state: BTB contents, per-thread
// history registers and return stacks (whose cursors must stay inside the
// stack), and the direction engine's counter tables. The return mode and
// engine kind are not walked — both are fixed by the predictor's registered
// name, which the checkpoint's configuration fingerprint already pins.
//
// ok is false, and nothing is walked, when the predictor is not the
// standard frame around a built-in direction engine (a fully custom
// Predictor or a NewComposed custom engine): its tables are opaque, so
// callers treat it as "checkpointing unsupported" and run cold.
func State(p Predictor, c *state.Codec) (ok bool) {
	u, isUnit := p.(*unit)
	if !isUnit {
		return false
	}
	var tables [][]uint8
	switch e := u.dir.(type) {
	case *gshareDir:
		tables = [][]uint8{e.pht}
	case *smithsDir:
		tables = [][]uint8{e.pht}
	case *gskewedDir:
		tables = e.banks[:]
	case staticDir, noneDir:
	default:
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
