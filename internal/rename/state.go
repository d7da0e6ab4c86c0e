package rename

import "repro/internal/state"

// state walks one physical register file: the full map table, the free
// list in its exact LIFO order (allocation order is result-affecting —
// physical register numbers feed ready-time tracking) and per-register
// ready cycles. Every register number read must name a register, and the
// file as a whole must pass CheckConsistency.
func (f *File) state(c *state.Codec) {
	reg := func(c *state.Codec, r *PhysReg) { state.Index(c, r, f.total) }
	state.Fixed(c, f.mapTable, "map table", reg)
	state.Slice(c, &f.free, f.total, "free list", reg)
	state.Fixed(c, f.readyAt, "register ready times", state.Int[int64])
	if !c.Writing() && c.Err() == nil {
		if err := f.CheckConsistency(); err != nil {
			c.Failf("%v", err)
		}
	}
}

// State walks both register files.
func (r *Renamer) State(c *state.Codec) {
	r.Int.state(c)
	r.FP.state(c)
}
