package branch

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func newTest(t *testing.T, threads int) *Unit {
	t.Helper()
	return mustUnit(t, DefaultConfig(), threads)
}

// mustUnit builds the predictor cfg names for threads hardware contexts.
func mustUnit(t *testing.T, cfg Config, threads int) *Unit {
	t.Helper()
	p, err := New(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.BTBEntries != 256 || c.BTBAssoc != 4 || c.PHTEntries != 2048 || c.RASEntries != 12 {
		t.Fatalf("default config %+v does not match Section 2.1", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{BTBEntries: 0, BTBAssoc: 4, PHTEntries: 2048, RASEntries: 12},
		{BTBEntries: 255, BTBAssoc: 4, PHTEntries: 2048, RASEntries: 12},
		{BTBEntries: 192, BTBAssoc: 4, PHTEntries: 2048, RASEntries: 12}, // 48 sets
		{BTBEntries: 256, BTBAssoc: 4, PHTEntries: 1000, RASEntries: 12},
		{BTBEntries: 256, BTBAssoc: 4, PHTEntries: 2048, RASEntries: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
	if _, err := New(DefaultConfig(), 0); err == nil {
		t.Error("New built a predictor for zero threads")
	}
}

// TestValidateRejectsOversizedHistory: more history bits than PHT index
// bits silently alias the gshare index, so Validate must reject the
// combination instead of letting the extra bits fold away.
func TestValidateRejectsOversizedHistory(t *testing.T) {
	c := DefaultConfig()
	c.PHTEntries = 1024 // log2 = 10
	c.HistoryLen = 11
	if err := c.Validate(); err == nil {
		t.Fatal("HistoryLen 11 with 1024 PHT entries must not validate")
	}
	c.HistoryLen = 10
	if err := c.Validate(); err != nil {
		t.Fatalf("HistoryLen == log2(PHTEntries) must validate: %v", err)
	}
}

func TestValidateRejectsUnknownPredictor(t *testing.T) {
	c := DefaultConfig()
	c.Predictor = "no-such-predictor"
	err := c.Validate()
	if err == nil {
		t.Fatal("unknown predictor name must not validate")
	}
	if !strings.Contains(err.Error(), Gshare) || !strings.Contains(err.Error(), Gskewed) {
		t.Fatalf("error %q should list the registered names", err)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{
		Gshare, Smiths, Static, Gskewed, None, Perfect,
		"gshare.rasonly", "gshare.noret", "none.noret",
	} {
		if !Registered(name) {
			t.Errorf("built-in %q not registered", name)
		}
	}
	// The empty name resolves to the default.
	if !Registered("") {
		t.Fatal("empty name did not resolve to the default predictor")
	}
	// Names are permanent: re-registering a built-in fails.
	noEngine := func(cfg Config) (DirEngine, error) { return nil, nil }
	if err := Register(Gshare, noEngine); err == nil {
		t.Fatal("re-registering gshare succeeded")
	}
	// Name grammar.
	if err := Register("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := Register("9lives", noEngine); err == nil {
		t.Fatal("name starting with a digit accepted")
	}
	names := Names()
	if len(names) == 0 || names[0] != Gshare {
		t.Fatalf("Names() = %v, want gshare first (registration order)", names)
	}
}

// TestPHTTrains: a branch always taken at one PC should saturate toward
// taken after a few updates.
func TestPHTTrains(t *testing.T) {
	p := newTest(t, 1)
	pc := int64(0x1000)
	if taken, _ := p.Direction(0, pc); taken {
		t.Fatal("PHT should initialize weakly not-taken")
	}
	for i := 0; i < 4; i++ {
		h := p.history[0]
		p.Update(0, pc, isa.ClassBranch, true, 0x2000, h)
	}
	if taken, _ := p.Direction(0, pc); !taken {
		t.Fatal("PHT failed to learn an always-taken branch")
	}
	for i := 0; i < 8; i++ {
		h := p.history[0]
		p.Update(0, pc, isa.ClassBranch, false, 0x2000, h)
	}
	if taken, _ := p.Direction(0, pc); taken {
		t.Fatal("PHT failed to unlearn")
	}
}

// TestConfidenceTracksSaturation: a fresh (weakly-held) counter is
// low-confidence; a saturated one is confident.
func TestConfidenceTracksSaturation(t *testing.T) {
	p := newTest(t, 1)
	pc := int64(0x1000)
	if _, conf := p.Direction(0, pc); conf {
		t.Fatal("weakly not-taken counter reported confident")
	}
	for i := 0; i < 4; i++ {
		p.Update(0, pc, isa.ClassBranch, true, 0x2000, p.history[0])
	}
	if taken, conf := p.Direction(0, pc); !taken || !conf {
		t.Fatalf("saturated counter: taken=%v conf=%v, want true/true", taken, conf)
	}
}

// TestGshareUsesHistory: with different global histories the same PC should
// map to different PHT entries (that is the point of gshare).
func TestGshareUsesHistory(t *testing.T) {
	p := newTest(t, 1)
	g := p.dir.(*gshareDir)
	pc := int64(0x4000)
	i1 := g.index(pc, p.history[0])
	p.SpeculateHistory(0, true)
	i2 := g.index(pc, p.history[0])
	if i1 == i2 {
		t.Fatal("history did not affect PHT index")
	}
}

// TestSmithsIgnoresHistory: the bimodal predictor must return the same
// counter regardless of global history.
func TestSmithsIgnoresHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = Smiths
	p := mustUnit(t, cfg, 1)
	pc := int64(0x4000)
	for i := 0; i < 4; i++ {
		p.Update(0, pc, isa.ClassBranch, true, 0x100, p.history[0])
	}
	p.SpeculateHistory(0, true)
	p.SpeculateHistory(0, false)
	if taken, _ := p.Direction(0, pc); !taken {
		t.Fatal("smiths prediction changed with history")
	}
}

// TestStaticBackwardTaken: once the BTB has learned a target, static
// predicts taken exactly for backward (loop) branches, and the probe must
// not disturb BTB replacement state.
func TestStaticBackwardTaken(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = Static
	p := mustUnit(t, cfg, 1)
	back, fwd := int64(0x5000), int64(0x6000)
	if taken, conf := p.Direction(0, back); taken || conf {
		t.Fatal("unknown-target branch must predict not-taken, low confidence")
	}
	p.Update(0, back, isa.ClassBranch, true, 0x4000, 0) // backward target
	p.Update(0, fwd, isa.ClassBranch, true, 0x7000, 0)  // forward target
	if taken, _ := p.Direction(0, back); !taken {
		t.Fatal("backward branch not predicted taken")
	}
	if taken, _ := p.Direction(0, fwd); taken {
		t.Fatal("forward branch predicted taken")
	}
	tick := p.lruTick
	p.Direction(0, back)
	if p.lruTick != tick {
		t.Fatal("static direction probe perturbed BTB LRU state")
	}
}

// TestGskewedMajorityTrains: the three-bank majority vote must learn a
// biased branch like the other engines, and report unanimity as confidence.
func TestGskewedMajorityTrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = Gskewed
	p := mustUnit(t, cfg, 1)
	pc := int64(0x2340)
	if taken, conf := p.Direction(0, pc); taken || !conf {
		t.Fatalf("fresh gskewed: taken=%v conf=%v, want false (unanimous not-taken)", taken, conf)
	}
	for i := 0; i < 4; i++ {
		p.Update(0, pc, isa.ClassBranch, true, 0x100, p.history[0])
	}
	if taken, conf := p.Direction(0, pc); !taken || !conf {
		t.Fatalf("trained gskewed: taken=%v conf=%v, want true/true", taken, conf)
	}
}

// TestNonePredictsNotTaken: the none engine never predicts taken and never
// claims confidence.
func TestNonePredictsNotTaken(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Predictor = None
	p := mustUnit(t, cfg, 1)
	pc := int64(0x100)
	for i := 0; i < 8; i++ {
		p.Update(0, pc, isa.ClassBranch, true, 0x2000, p.history[0])
	}
	if taken, conf := p.Direction(0, pc); taken || conf {
		t.Fatalf("none engine: taken=%v conf=%v, want false/false", taken, conf)
	}
}

// TestReturnVariants: the three return modes differ exactly in RAS use and
// BTB fallback.
func TestReturnVariants(t *testing.T) {
	retPC := int64(0x9000)
	mk := func(name string) *Unit {
		cfg := DefaultConfig()
		cfg.Predictor = name
		return mustUnit(t, cfg, 1)
	}

	full := mk("gshare")
	if _, ok := full.PushReturn(0, retPC); !ok {
		t.Fatal("full: push rejected")
	}
	if tgt, ok, _, hasCP := full.Return(0, 0x100); !ok || tgt != retPC || !hasCP {
		t.Fatalf("full: Return = %#x, %v, hasCP=%v", tgt, ok, hasCP)
	}
	// Empty RAS, BTB knows the return site: fallback, no checkpoint.
	full.Update(0, 0x100, isa.ClassReturn, true, retPC, 0)
	if tgt, ok, _, hasCP := full.Return(0, 0x100); !ok || tgt != retPC || hasCP {
		t.Fatalf("full fallback: Return = %#x, %v, hasCP=%v", tgt, ok, hasCP)
	}

	rasOnly := mk("gshare.rasonly")
	rasOnly.Update(0, 0x100, isa.ClassReturn, true, retPC, 0)
	if _, ok, _, _ := rasOnly.Return(0, 0x100); ok {
		t.Fatal("rasonly: BTB fallback used on empty stack")
	}
	if _, ok := rasOnly.PushReturn(0, retPC); !ok {
		t.Fatal("rasonly: push rejected")
	}
	if tgt, ok, _, hasCP := rasOnly.Return(0, 0x100); !ok || tgt != retPC || !hasCP {
		t.Fatalf("rasonly: Return = %#x, %v, hasCP=%v", tgt, ok, hasCP)
	}

	noRet := mk("gshare.noret")
	if _, ok := noRet.PushReturn(0, retPC); ok {
		t.Fatal("noret: push accepted")
	}
	noRet.Update(0, 0x100, isa.ClassReturn, true, retPC, 0)
	if _, ok, _, _ := noRet.Return(0, 0x100); ok {
		t.Fatal("noret: return predicted")
	}
	if noRet.ras[0].size != 0 {
		t.Fatal("noret: RAS grew")
	}
}

func TestHistoryCheckpointRestore(t *testing.T) {
	p := newTest(t, 2)
	cp1 := p.SpeculateHistory(1, true)
	cp2 := p.SpeculateHistory(1, false)
	p.SpeculateHistory(1, true)
	p.RestoreHistory(1, cp2)
	if got := p.history[1]; got != cp2 {
		t.Fatalf("restore to cp2: history %b want %b", got, cp2)
	}
	p.RestoreHistory(1, cp1)
	if got := p.history[1]; got != 0 {
		t.Fatalf("restore to cp1: history %b want 0", got)
	}
	// Thread 0's history must be untouched.
	if p.history[0] != 0 {
		t.Fatal("cross-thread history contamination")
	}
}

func TestBTBHitAfterInstall(t *testing.T) {
	p := newTest(t, 4)
	p.Update(2, 0x1000, isa.ClassJump, true, 0xBEEF0, p.history[2])
	if tgt, ok := p.Target(2, 0x1000); !ok || tgt != 0xBEEF0 {
		t.Fatalf("BTB lookup = %#x, %v", tgt, ok)
	}
	if _, ok := p.Target(2, 0x1040); ok {
		t.Fatal("BTB hit for never-installed PC")
	}
}

// TestBTBThreadTagging: entries installed by one thread must not be
// returned for another (phantom-branch avoidance, Section 2).
func TestBTBThreadTagging(t *testing.T) {
	p := newTest(t, 8)
	p.Update(3, 0x1000, isa.ClassJump, true, 0xAAAA0, p.history[3])
	if _, ok := p.Target(4, 0x1000); ok {
		t.Fatal("thread 4 hit thread 3's BTB entry")
	}
	if tgt, ok := p.Target(3, 0x1000); !ok || tgt != 0xAAAA0 {
		t.Fatal("thread 3 lost its own entry")
	}
}

// TestBTBLRUEviction: filling a set beyond its associativity evicts the
// least recently used entry, not the most recent.
func TestBTBLRUEviction(t *testing.T) {
	cfg := DefaultConfig()
	p := mustUnit(t, cfg, 1)
	sets := cfg.BTBEntries / cfg.BTBAssoc
	// PCs mapping to the same set: stride = sets * 4 bytes.
	pcAt := func(i int) int64 { return int64(0x8000 + i*sets*4) }
	for i := 0; i < cfg.BTBAssoc; i++ {
		p.Update(0, pcAt(i), isa.ClassJump, true, int64(0x100+i), 0)
	}
	// Touch entry 0 so entry 1 becomes LRU.
	if _, ok := p.Target(0, pcAt(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	p.Update(0, pcAt(cfg.BTBAssoc), isa.ClassJump, true, 0x999, 0)
	if _, ok := p.Target(0, pcAt(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := p.Target(0, pcAt(1)); ok {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestBTBUpdateRefreshesExisting(t *testing.T) {
	p := newTest(t, 1)
	p.Update(0, 0x2000, isa.ClassJumpInd, true, 0x3000, 0)
	p.Update(0, 0x2000, isa.ClassJumpInd, true, 0x4000, 0)
	if tgt, _ := p.Target(0, 0x2000); tgt != 0x4000 {
		t.Fatalf("BTB target not refreshed: %#x", tgt)
	}
}

func TestRASPushPop(t *testing.T) {
	p := newTest(t, 2)
	p.PushReturn(0, 0x100)
	p.PushReturn(0, 0x200)
	if tgt, ok, _ := p.popReturn(0); !ok || tgt != 0x200 {
		t.Fatalf("pop = %#x, %v", tgt, ok)
	}
	if tgt, ok, _ := p.popReturn(0); !ok || tgt != 0x100 {
		t.Fatalf("pop = %#x, %v", tgt, ok)
	}
	if _, ok, _ := p.popReturn(0); ok {
		t.Fatal("pop from empty stack succeeded")
	}
}

func TestRASPerThread(t *testing.T) {
	p := newTest(t, 2)
	p.PushReturn(0, 0xAAA8)
	p.PushReturn(1, 0xBBB8)
	if tgt, ok, _ := p.popReturn(0); !ok || tgt != 0xAAA8 {
		t.Fatalf("thread 0 pop = %#x, %v", tgt, ok)
	}
	if tgt, ok, _ := p.popReturn(1); !ok || tgt != 0xBBB8 {
		t.Fatalf("thread 1 pop = %#x, %v", tgt, ok)
	}
}

// TestRASOverflowWrap: pushing beyond capacity keeps the most recent
// RASEntries returns (a 12-deep circular stack, per the paper).
func TestRASOverflowWrap(t *testing.T) {
	cfg := DefaultConfig()
	p := mustUnit(t, cfg, 1)
	n := cfg.RASEntries + 3
	for i := 0; i < n; i++ {
		p.PushReturn(0, int64(i*8))
	}
	if p.ras[0].size != cfg.RASEntries {
		t.Fatalf("depth = %d, want %d", p.ras[0].size, cfg.RASEntries)
	}
	for i := n - 1; i >= n-cfg.RASEntries; i-- {
		tgt, ok, _ := p.popReturn(0)
		if !ok || tgt != int64(i*8) {
			t.Fatalf("pop %d = %#x, %v; want %#x", i, tgt, ok, i*8)
		}
	}
}

// TestRASCheckpointUndo: undoing a push and a pop in reverse order restores
// the stack exactly.
func TestRASCheckpointUndo(t *testing.T) {
	p := newTest(t, 1)
	p.PushReturn(0, 0x10)
	p.PushReturn(0, 0x20)
	// Speculative pop then push (wrong-path call after wrong-path return).
	tgt, ok, cpPop := p.popReturn(0)
	if !ok || tgt != 0x20 {
		t.Fatal("setup pop failed")
	}
	cpPush, _ := p.PushReturn(0, 0x99)
	// Restore in reverse order.
	p.RestoreRAS(0, cpPush)
	p.RestoreRAS(0, cpPop)
	if tgt, ok, _ := p.popReturn(0); !ok || tgt != 0x20 {
		t.Fatalf("after undo, pop = %#x, %v; want 0x20", tgt, ok)
	}
	if tgt, ok, _ := p.popReturn(0); !ok || tgt != 0x10 {
		t.Fatalf("after undo, second pop = %#x, %v; want 0x10", tgt, ok)
	}
}

// TestRASUnderflowCheckpoint: a pop from an empty stack predicts nothing
// and mutates nothing — restoring its checkpoint is a no-op, and the
// stack keeps working afterwards.
func TestRASUnderflowCheckpoint(t *testing.T) {
	p := newTest(t, 1)
	_, ok, cp := p.popReturn(0)
	if ok {
		t.Fatal("pop from empty stack succeeded")
	}
	if p.ras[0].size != 0 {
		t.Fatal("underflow changed depth")
	}
	p.RestoreRAS(0, cp)
	p.PushReturn(0, 0x42)
	if tgt, ok, _ := p.popReturn(0); !ok || tgt != 0x42 {
		t.Fatalf("stack broken after underflow restore: %#x, %v", tgt, ok)
	}
}

// TestRASWraparoundUnderSpeculation: drive the stack past its capacity so
// top wraps, speculatively pop and push across the wrap point, then undo
// in reverse order — the stack must predict exactly as if the speculation
// never happened, per thread.
func TestRASWraparoundUnderSpeculation(t *testing.T) {
	cfg := DefaultConfig()
	p := mustUnit(t, cfg, 2)
	// Fill thread 0 beyond capacity so top has wrapped to a small index.
	n := cfg.RASEntries + cfg.RASEntries/2
	for i := 0; i < n; i++ {
		p.PushReturn(0, int64(0x1000+i*8))
	}
	// Thread 1 gets distinct state that must survive untouched.
	p.PushReturn(1, 0xBEEF)

	// Speculative wrong-path sequence on thread 0: two pops (crossing the
	// wrap boundary backwards) then a push (re-crossing it forwards).
	tgt1, ok1, cp1 := p.popReturn(0)
	tgt2, ok2, cp2 := p.popReturn(0)
	if !ok1 || !ok2 || tgt1 != int64(0x1000+(n-1)*8) || tgt2 != int64(0x1000+(n-2)*8) {
		t.Fatalf("speculative pops = %#x,%v %#x,%v", tgt1, ok1, tgt2, ok2)
	}
	cp3, _ := p.PushReturn(0, 0xDEAD)

	// Squash walk: youngest first.
	p.RestoreRAS(0, cp3)
	p.RestoreRAS(0, cp2)
	p.RestoreRAS(0, cp1)

	if p.ras[0].size != cfg.RASEntries {
		t.Fatalf("depth after undo = %d, want %d", p.ras[0].size, cfg.RASEntries)
	}
	// The stack must replay the most recent RASEntries pushes exactly.
	for i := n - 1; i >= n-cfg.RASEntries; i-- {
		tgt, ok, _ := p.popReturn(0)
		if !ok || tgt != int64(0x1000+i*8) {
			t.Fatalf("post-undo pop %d = %#x, %v; want %#x", i, tgt, ok, 0x1000+i*8)
		}
	}
	if tgt, ok, _ := p.popReturn(1); !ok || tgt != 0xBEEF {
		t.Fatalf("thread 1 state disturbed: %#x, %v", tgt, ok)
	}
}

// Property: a push followed immediately by its restore leaves depth and
// subsequent pops unchanged, from any reachable stack state.
func TestRASPushUndoProperty(t *testing.T) {
	f := func(ops []bool, addr int64) bool {
		p := mustUnit(t, DefaultConfig(), 1)
		for i, push := range ops {
			if push {
				p.PushReturn(0, int64(i+1)*8)
			} else {
				p.popReturn(0)
			}
		}
		before := p.ras[0].size
		cp, _ := p.PushReturn(0, addr)
		p.RestoreRAS(0, cp)
		return p.ras[0].size == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictabilityOfPatterns: gshare with 11 bits of history must learn a
// short repeating pattern at a single PC essentially perfectly.
func TestPredictabilityOfPatterns(t *testing.T) {
	p := newTest(t, 1)
	pc := int64(0x7700)
	pattern := []bool{true, true, false}
	correct, total := 0, 0
	for i := 0; i < 3000; i++ {
		actual := pattern[i%len(pattern)]
		pred, _ := p.Direction(0, pc)
		h := p.SpeculateHistory(0, actual) // history tracks actual outcome
		p.Update(0, pc, isa.ClassBranch, actual, 0, h)
		if i > 300 {
			total++
			if pred == actual {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Fatalf("gshare accuracy on period-3 pattern = %.3f, want > 0.95", acc)
	}
}

// TestSharedPHTInterference: two threads whose branches alias to the same
// PHT counters and train opposite directions must degrade each other — the
// mechanism behind the paper's Table 3 mispredict growth with thread count.
// History is disabled so the aliasing is exact and the effect deterministic.
func TestSharedPHTInterference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryLen = 0
	acc := func(p *Unit, interfere bool) float64 {
		correct, total := 0, 0
		for i := 0; i < 4000; i++ {
			pc := int64(0x100 + (i%64)*4)
			pred, _ := p.Direction(0, pc)
			p.Update(0, pc, isa.ClassBranch, true, 0, 0)
			if pred {
				correct++
			}
			total++
			if interfere {
				// Thread 1: opposite direction at PCs aliasing to the same
				// PHT counters (index uses pc>>2 mod 2048).
				pc1 := pc + 2048*4
				p.Update(1, pc1, isa.ClassBranch, false, 0, 0)
				p.Update(1, pc1, isa.ClassBranch, false, 0, 0)
			}
		}
		return float64(correct) / float64(total)
	}
	soloAcc := acc(mustUnit(t, cfg, 2), false)
	sharedAcc := acc(mustUnit(t, cfg, 2), true)
	if soloAcc < 0.9 {
		t.Fatalf("solo accuracy %.3f unexpectedly low", soloAcc)
	}
	if sharedAcc >= soloAcc-0.05 {
		t.Fatalf("no interference: solo %.3f, shared %.3f", soloAcc, sharedAcc)
	}
}

// TestComposedPredictor: a DirEngine registered by name builds through New
// and gets the full frame — BTB, RAS, history — and its Predict/Update see
// matching history values; a builder that fails or yields no engine is an
// error at construction, not a nil slot on the cycle path.
func TestComposedPredictor(t *testing.T) {
	eng := &recordingEngine{}
	if err := Register("test_recording", func(Config) (DirEngine, error) { return eng, nil }); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Predictor = "test_recording"
	p := mustUnit(t, cfg, 1)
	p.SpeculateHistory(0, true)
	pc := int64(0x300)
	if taken, conf := p.Direction(0, pc); taken || conf {
		t.Fatalf("engine answer not passed through: %v %v", taken, conf)
	}
	if eng.lastPredictHist != p.history[0] {
		t.Fatalf("Predict saw history %b, live register is %b", eng.lastPredictHist, p.history[0])
	}
	p.Update(0, pc, isa.ClassBranch, true, 0x400, 0x7F)
	if eng.lastUpdateHist != 0x7F {
		t.Fatalf("Update saw history %b, checkpoint was 0x7F", eng.lastUpdateHist)
	}
	// The frame's BTB and RAS work as for built-ins.
	p.Update(0, 0x500, isa.ClassJump, true, 0x900, 0)
	if tgt, ok := p.Target(0, 0x500); !ok || tgt != 0x900 {
		t.Fatalf("composed BTB lookup = %#x, %v", tgt, ok)
	}
	if _, ok, _, _ := p.Return(0, 0x500); !ok {
		t.Fatal("custom engine's frame has no BTB fallback for returns (want the default return mode)")
	}

	refused := errors.New("PHT too small for this engine")
	for name, b := range map[string]Builder{
		"test_nil_engine":     func(Config) (DirEngine, error) { return nil, nil },
		"test_failing_engine": func(Config) (DirEngine, error) { return nil, refused },
	} {
		if err := Register(name, b); err != nil {
			t.Fatal(err)
		}
		cfg.Predictor = name
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("%s: New built a predictor around no engine", name)
		} else if name == "test_failing_engine" && !errors.Is(err, refused) {
			t.Errorf("%s: New returned %v, want the builder's error", name, err)
		}
	}
}

type recordingEngine struct {
	lastPredictHist uint32
	lastUpdateHist  uint32
}

func (r *recordingEngine) Predict(history uint32, pc int64) (bool, bool) {
	r.lastPredictHist = history
	return false, false
}

func (r *recordingEngine) Update(history uint32, pc int64, taken bool) {
	r.lastUpdateHist = history
}
