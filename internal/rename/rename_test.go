package rename

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/state"
)

func TestConfigPhysPerFile(t *testing.T) {
	c := Config{ExcessRegs: 100}
	if got := c.PhysPerFile(8); got != 356 {
		t.Fatalf("8 threads + 100 excess = %d physical, want 356 (paper Section 2)", got)
	}
	if got := c.PhysPerFile(1); got != 132 {
		t.Fatalf("1 thread = %d physical, want 132 (paper Section 2)", got)
	}
	// Figure 7 states its 200-register machine as ExcessRegs = 200 - 32t.
	if got := (Config{ExcessRegs: 200 - 32*4}).PhysPerFile(4); got != 200 {
		t.Fatalf("Figure 7 at 4 threads = %d physical, want 200", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{ExcessRegs: 100}).Validate(0); err == nil {
		t.Error("zero threads accepted")
	}
	// Figure 7: 200 registers cannot support 7 contexts (224 needed).
	if err := (Config{ExcessRegs: 200 - 32*7}).Validate(7); err == nil {
		t.Error("7 threads in 200 registers accepted")
	}
	if err := (Config{ExcessRegs: 200 - 32*5}).Validate(5); err != nil {
		t.Errorf("5 threads in 200 registers rejected: %v", err)
	}
}

func TestInitialMappingsReady(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 10}, 2)
	for th := 0; th < 2; th++ {
		for reg := 0; reg < isa.LogicalRegs; reg++ {
			p := r.Int.Lookup(th, reg)
			if p == None {
				t.Fatalf("thread %d r%d unmapped", th, reg)
			}
			if r.Int.ReadyAt(p) != 0 {
				t.Fatalf("initial mapping not ready")
			}
		}
	}
	if r.Int.FreeCount() != 10 {
		t.Fatalf("free = %d, want 10", r.Int.FreeCount())
	}
}

func TestThreadsIsolated(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 10}, 2)
	p0 := r.Int.Lookup(0, 5)
	p1 := r.Int.Lookup(1, 5)
	if p0 == p1 {
		t.Fatal("threads share a physical mapping")
	}
	d, _, ok := r.Int.Allocate(0, 5)
	if !ok {
		t.Fatal("allocate failed")
	}
	if r.Int.Lookup(1, 5) != p1 {
		t.Fatal("thread 1 mapping disturbed by thread 0 rename")
	}
	if d == p1 {
		t.Fatal("allocated a register still mapped by thread 1")
	}
}

func TestAllocateExhaustionStalls(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 2}, 1)
	if _, _, ok := r.Int.Allocate(0, 1); !ok {
		t.Fatal("first allocate failed")
	}
	if _, _, ok := r.Int.Allocate(0, 2); !ok {
		t.Fatal("second allocate failed")
	}
	if _, _, ok := r.Int.Allocate(0, 3); ok {
		t.Fatal("allocate beyond capacity succeeded")
	}
	if r.Int.FreeCount() != 0 {
		t.Fatal("free count wrong after exhaustion")
	}
}

func TestCommitFreeRecycles(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 1}, 1)
	d1, old1, _ := r.Int.Allocate(0, 7)
	if r.Int.FreeCount() != 0 {
		t.Fatal("expected empty free list")
	}
	r.Int.CommitFree(old1)
	d2, old2, ok := r.Int.Allocate(0, 7)
	if !ok {
		t.Fatal("allocate after commit-free failed")
	}
	if old2 != d1 {
		t.Fatalf("second rename displaced %d, want %d", old2, d1)
	}
	if d2 != old1 {
		t.Fatalf("recycled register %d, want %d", d2, old1)
	}
}

// TestRollbackRestoresMap: squash walk (youngest first) must restore the
// exact pre-rename state.
func TestRollbackRestoresMap(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 8}, 1)
	type alloc struct {
		reg       int
		dest, old PhysReg
	}
	orig := make([]PhysReg, isa.LogicalRegs)
	for i := range orig {
		orig[i] = r.Int.Lookup(0, i)
	}
	var allocs []alloc
	regs := []int{3, 5, 3, 7, 5, 3}
	for _, reg := range regs {
		d, o, ok := r.Int.Allocate(0, reg)
		if !ok {
			t.Fatal("allocate failed")
		}
		allocs = append(allocs, alloc{reg, d, o})
	}
	freeBefore := r.Int.FreeCount()
	for i := len(allocs) - 1; i >= 0; i-- {
		a := allocs[i]
		r.Int.Rollback(0, a.reg, a.dest, a.old)
	}
	for i := range orig {
		if got := r.Int.Lookup(0, i); got != orig[i] {
			t.Fatalf("r%d mapping %d after rollback, want %d", i, got, orig[i])
		}
	}
	if r.Int.FreeCount() != freeBefore+len(allocs) {
		t.Fatalf("free count %d, want %d", r.Int.FreeCount(), freeBefore+len(allocs))
	}
}

func TestReadyTracking(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 4}, 1)
	d, _, _ := r.Int.Allocate(0, 9)
	if r.Int.ReadyAt(d) != NotReady {
		t.Fatal("fresh register should be NotReady")
	}
	r.Int.SetReady(d, 42)
	if r.Int.ReadyAt(d) != 42 {
		t.Fatal("SetReady lost")
	}
	if r.Int.ReadyAt(None) != 0 {
		t.Fatal("None must always be ready")
	}
}

// A register's risk belongs to its current producer: each way the register
// changes hands (rollback, reallocation, the commit that frees it) clears
// it, and None is never at risk.
func TestRiskClearsWhenTheRegisterChangesHands(t *testing.T) {
	f := MustNew(Config{ExcessRegs: 4}, 1).Int
	d, old, _ := f.Allocate(0, 9)
	f.SetAtRisk(d, true)
	f.SetInstant(d, true)
	if !f.AtRisk(d) || !f.Instant(d) || f.AtRisk(None) {
		t.Fatal("flags not recorded, or None at risk")
	}
	if f.Rollback(0, 9, d, old); f.AtRisk(d) {
		t.Fatal("Rollback left the freed register at risk")
	}
	f.SetAtRisk(d, true) // stale on a free register
	if again, _, _ := f.Allocate(0, 9); again != d || f.AtRisk(d) {
		t.Fatal("Allocate handed out a register still at risk")
	}
	f.SetAtRisk(d, true)
	if _, prev, _ := f.Allocate(0, 9); prev != d {
		t.Fatalf("displaced %d, want %d", prev, d)
	}
	if f.CommitFree(d); f.AtRisk(d) {
		t.Fatal("CommitFree left the freed register at risk")
	}
}

func TestSrcPhysAndFileFor(t *testing.T) {
	r := MustNew(Config{ExcessRegs: 4}, 2)
	if r.FileFor(isa.IntReg(3)) != r.Int || r.FileFor(isa.FPReg(3)) != r.FP {
		t.Fatal("FileFor misroutes")
	}
	if r.SrcPhys(1, isa.RegNone) != None {
		t.Fatal("RegNone should map to None")
	}
	p := r.SrcPhys(1, isa.FPReg(4))
	if p != r.FP.Lookup(1, 4) {
		t.Fatal("SrcPhys mismatch")
	}
}

// Property: under any interleaving of allocate / commit-free / rollback, no
// physical register is ever both free and mapped, and counts are conserved.
func TestConservationProperty(t *testing.T) {
	type pending struct {
		reg       int
		dest, old PhysReg
	}
	f := func(ops []uint8) bool {
		r := MustNew(Config{ExcessRegs: 6}, 2)
		file := r.Int
		var inflight []pending
		for _, op := range ops {
			th := int(op>>6) & 1
			reg := int(op>>1) % isa.LogicalRegs
			switch {
			case op&1 == 0: // allocate
				if d, o, ok := file.Allocate(th, reg); ok {
					inflight = append(inflight, pending{reg + th*1000, d, o})
				}
			case len(inflight) > 0 && op&2 != 0: // commit oldest
				p := inflight[0]
				inflight = inflight[1:]
				file.CommitFree(p.old)
			case len(inflight) > 0: // rollback youngest
				p := inflight[len(inflight)-1]
				inflight = inflight[:len(inflight)-1]
				file.Rollback(p.reg/1000, p.reg%1000, p.dest, p.old)
			}
		}
		// Conservation: mapped + free + in-flight-old == total.
		seen := map[PhysReg]int{}
		for th := 0; th < 2; th++ {
			for reg := 0; reg < isa.LogicalRegs; reg++ {
				seen[file.Lookup(th, reg)]++
			}
		}
		for _, p := range inflight {
			seen[p.old]++
		}
		total := len(seen) + file.FreeCount()
		if total != file.Total() {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false // double-mapped register
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The register-file walk restores exactly what it saved and refuses
// register numbers that name no register — in the map table, where the
// core would index ready times with them, and on the free list, where the
// next Allocate would hand one out.
func TestStateWalk(t *testing.T) {
	cfg := Config{ExcessRegs: 20}
	save := func(r *Renamer) []byte {
		c := state.NewWriter(1)
		r.State(c)
		data, err := c.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	restore := func(data []byte) (*Renamer, error) {
		r, c := MustNew(cfg, 2), state.NewReader(data, 1)
		r.State(c)
		return r, c.Close()
	}

	warm := MustNew(cfg, 2)
	dest, _, _ := warm.Int.Allocate(1, 5)
	warm.Int.SetReady(dest, 42)
	warm.FP.Allocate(0, 9)
	data := save(warm)
	got, err := restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int.Lookup(1, 5) != dest || got.Int.ReadyAt(dest) != 42 || got.FP.FreeCount() != warm.FP.FreeCount() {
		t.Fatal("restored files differ from the saved ones")
	}
	if string(save(got)) != string(data) {
		t.Fatal("save -> restore -> save changed the bytes")
	}

	for name, corrupt := range map[string]func(f *File){
		"map entry past the file":  func(f *File) { f.mapTable[7] = PhysReg(f.total) },
		"unmapped logical":         func(f *File) { f.mapTable[7] = None },
		"free entry past the file": func(f *File) { f.free[0] = 1_000_000 },
		"negative free entry":      func(f *File) { f.free[0] = None },
		"register free twice":      func(f *File) { f.free[0] = f.free[1] },
		"free list over capacity":  func(f *File) { f.free = append(f.free, make([]PhysReg, f.total)...) },
	} {
		bad := MustNew(cfg, 2)
		corrupt(bad.FP)
		if _, err := restore(save(bad)); err == nil {
			t.Errorf("%s: restore accepted it", name)
		}
	}
}
