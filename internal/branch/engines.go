package branch

// dirEngine is the internal direction-prediction slot of a Unit: the
// conditional taken/not-taken guess plus a confidence estimate, and the
// commit-time training step. Engines read the frame's per-thread history
// through u and keep their own counter tables, which tables hands to the
// checkpoint walk; ok is false for an engine whose state is opaque.
type dirEngine interface {
	predict(u *Unit, thread int, pc int64) (taken, confident bool)
	update(u *Unit, thread int, pc int64, taken bool, history uint32)
	tables() (t [][]uint8, ok bool)
}

// bump moves a 2-bit saturating counter toward the outcome.
func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

// gshareDir is McFarling's gshare: one 2-bit counter table indexed by the
// XOR of the low PC bits and the thread's global history — the paper's
// baseline scheme. Confidence is counter saturation: a weakly-held
// counter (1 or 2) marks the prediction low-confidence.
type gshareDir struct {
	pht  []uint8
	mask uint64
}

func newGshareDir(cfg Config) dirEngine {
	e := &gshareDir{pht: make([]uint8, cfg.PHTEntries), mask: uint64(cfg.PHTEntries - 1)}
	for i := range e.pht {
		e.pht[i] = 1 // weakly not-taken
	}
	return e
}

func (e *gshareDir) index(pc int64, history uint32) int {
	return int(((uint64(pc) >> 2) ^ uint64(history)) & e.mask)
}

func (e *gshareDir) predict(u *Unit, thread int, pc int64) (bool, bool) {
	c := e.pht[e.index(pc, u.history[thread])]
	return c >= 2, c == 0 || c == 3
}

func (e *gshareDir) update(u *Unit, thread int, pc int64, taken bool, history uint32) {
	idx := e.index(pc, history)
	e.pht[idx] = bump(e.pht[idx], taken)
}

func (e *gshareDir) tables() ([][]uint8, bool) { return [][]uint8{e.pht}, true }

// smithsDir is Smith's bimodal predictor: the same 2-bit counters indexed
// by PC alone, no history. Confidence is counter saturation.
type smithsDir struct {
	pht  []uint8
	mask uint64
}

func newSmithsDir(cfg Config) dirEngine {
	e := &smithsDir{pht: make([]uint8, cfg.PHTEntries), mask: uint64(cfg.PHTEntries - 1)}
	for i := range e.pht {
		e.pht[i] = 1 // weakly not-taken
	}
	return e
}

func (e *smithsDir) predict(u *Unit, thread int, pc int64) (bool, bool) {
	c := e.pht[(uint64(pc)>>2)&e.mask]
	return c >= 2, c == 0 || c == 3
}

func (e *smithsDir) update(u *Unit, thread int, pc int64, taken bool, history uint32) {
	idx := (uint64(pc) >> 2) & e.mask
	e.pht[idx] = bump(e.pht[idx], taken)
}

func (e *smithsDir) tables() ([][]uint8, bool) { return [][]uint8{e.pht}, true }

// staticDir is backward-taken/forward-not-taken: a branch whose learned
// target lies at a lower PC (a loop back edge) predicts taken. The target
// comes from a non-mutating BTB peek, so an unseen branch — target unknown
// — predicts not-taken. Static prediction carries no confidence estimate.
type staticDir struct{}

func (staticDir) predict(u *Unit, thread int, pc int64) (bool, bool) {
	if target, ok := u.peekTarget(thread, pc); ok {
		return target < pc, false
	}
	return false, false
}

func (staticDir) update(u *Unit, thread int, pc int64, taken bool, history uint32) {}
func (staticDir) tables() ([][]uint8, bool)                                        { return nil, true }

// gskewedDir is the enhanced skewed predictor (Michaud, Seznec & Uhlig):
// three 2-bit banks addressed by distinct skewing functions of (PC,
// history) vote on the direction, so an alias in one bank is outvoted by
// the other two. Confidence is vote unanimity.
type gskewedDir struct {
	banks [3][]uint8
	mask  uint64
}

func newGskewedDir(cfg Config) dirEngine {
	e := &gskewedDir{mask: uint64(cfg.PHTEntries - 1)}
	for b := range e.banks {
		e.banks[b] = make([]uint8, cfg.PHTEntries)
		for i := range e.banks[b] {
			e.banks[b][i] = 1 // weakly not-taken
		}
	}
	return e
}

// indices computes the three skewed bank indices. The skewing functions
// only need to decorrelate the banks' aliasing patterns; simple shifted
// XOR mixes suffice and stay allocation-free.
func (e *gskewedDir) indices(pc int64, history uint32) (i0, i1, i2 int) {
	a := uint64(pc) >> 2
	h := uint64(history)
	i0 = int((a ^ h) & e.mask)
	i1 = int((a ^ (h << 1) ^ (a >> 3)) & e.mask)
	i2 = int(((a >> 1) ^ h ^ (a << 2)) & e.mask)
	return i0, i1, i2
}

func (e *gskewedDir) predict(u *Unit, thread int, pc int64) (bool, bool) {
	i0, i1, i2 := e.indices(pc, u.history[thread])
	v0 := e.banks[0][i0] >= 2
	v1 := e.banks[1][i1] >= 2
	v2 := e.banks[2][i2] >= 2
	votes := 0
	if v0 {
		votes++
	}
	if v1 {
		votes++
	}
	if v2 {
		votes++
	}
	return votes >= 2, v0 == v1 && v1 == v2
}

func (e *gskewedDir) update(u *Unit, thread int, pc int64, taken bool, history uint32) {
	i0, i1, i2 := e.indices(pc, history)
	e.banks[0][i0] = bump(e.banks[0][i0], taken)
	e.banks[1][i1] = bump(e.banks[1][i1], taken)
	e.banks[2][i2] = bump(e.banks[2][i2], taken)
}

func (e *gskewedDir) tables() ([][]uint8, bool) { return e.banks[:], true }

// noneDir predicts every conditional branch not-taken, with no training
// and no confidence.
type noneDir struct{}

func (noneDir) predict(u *Unit, thread int, pc int64) (bool, bool)               { return false, false }
func (noneDir) update(u *Unit, thread int, pc int64, taken bool, history uint32) {}
func (noneDir) tables() ([][]uint8, bool)                                        { return nil, true }

// DirEngine is the public direction-engine slot — what a custom predictor
// is (see Register): the conditional direction guess plus its confidence,
// and the commit-time training step. history is the thread's global
// history — the live register at predict time, the pre-branch checkpoint at
// update time, so training sees the same value the prediction saw.
// Implementations must be deterministic and allocation-free: they run on
// the simulator's zero-allocation cycle loop.
type DirEngine interface {
	Predict(history uint32, pc int64) (taken, confident bool)
	Update(history uint32, pc int64, taken bool)
}

// customDir adapts a public DirEngine into the internal slot.
type customDir struct {
	e DirEngine
}

func (c customDir) predict(u *Unit, thread int, pc int64) (bool, bool) {
	return c.e.Predict(u.history[thread], pc)
}

func (c customDir) update(u *Unit, thread int, pc int64, taken bool, history uint32) {
	c.e.Update(history, pc, taken)
}

// tables: a custom engine's counters are its own, so it cannot be
// checkpointed.
func (c customDir) tables() ([][]uint8, bool) { return nil, false }

func init() {
	builtin := func(name string, mk func(cfg Config) dirEngine, ret retMode) {
		engine := func(cfg Config) (dirEngine, error) { return mk(cfg), nil }
		if err := reg.Register(name, scheme{engine: engine, ret: ret}); err != nil {
			panic(err)
		}
	}
	engines := []struct {
		name string
		mk   func(cfg Config) dirEngine
	}{
		{Gshare, newGshareDir},
		{Smiths, newSmithsDir},
		{Static, func(Config) dirEngine { return staticDir{} }},
		{Gskewed, newGskewedDir},
		{None, func(Config) dirEngine { return noneDir{} }},
	}
	for _, e := range engines {
		builtin(e.name, e.mk, retFull)
		builtin(e.name+".rasonly", e.mk, retRASOnly)
		builtin(e.name+".noret", e.mk, retNone)
	}
	// The oracle: the core bypasses prediction entirely (Config.Oracle).
	// The frame built here exists only so the core's predictor is never
	// nil; under the oracle no wrong path ever starts and no method is
	// called.
	builtin(Perfect, newGshareDir, retFull)
}
