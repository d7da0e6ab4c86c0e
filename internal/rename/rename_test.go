package rename

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/state"
)

func TestConfigPhysPerFile(t *testing.T) {
	c := Config{Threads: 8, ExcessRegs: 100}
	if got := c.PhysPerFile(); got != 356 {
		t.Fatalf("8 threads + 100 excess = %d physical, want 356 (paper Section 2)", got)
	}
	c = Config{Threads: 1, ExcessRegs: 100}
	if got := c.PhysPerFile(); got != 132 {
		t.Fatalf("1 thread = %d physical, want 132 (paper Section 2)", got)
	}
	c = Config{Threads: 4, TotalRegs: 200}
	if got := c.PhysPerFile(); got != 200 {
		t.Fatalf("TotalRegs override = %d, want 200 (Figure 7)", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Threads: 0, ExcessRegs: 100}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	// Figure 7: 200 registers cannot support 7 contexts (224 needed).
	if err := (Config{Threads: 7, TotalRegs: 200}).Validate(); err == nil {
		t.Error("7 threads in 200 registers accepted")
	}
	if err := (Config{Threads: 5, TotalRegs: 200}).Validate(); err != nil {
		t.Errorf("5 threads in 200 registers rejected: %v", err)
	}
}

func TestInitialMappingsReady(t *testing.T) {
	r := MustNew(Config{Threads: 2, ExcessRegs: 10})
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
	r := MustNew(Config{Threads: 2, ExcessRegs: 10})
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
	r := MustNew(Config{Threads: 1, ExcessRegs: 2})
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
	r := MustNew(Config{Threads: 1, ExcessRegs: 1})
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
	r := MustNew(Config{Threads: 1, ExcessRegs: 8})
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
	r := MustNew(Config{Threads: 1, ExcessRegs: 4})
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

func TestSrcPhysAndFileFor(t *testing.T) {
	r := MustNew(Config{Threads: 2, ExcessRegs: 4})
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
		r := MustNew(Config{Threads: 2, ExcessRegs: 6})
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
	cfg := Config{Threads: 2, ExcessRegs: 20}
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
		r, c := MustNew(cfg), state.NewReader(data, 1)
		r.State(c)
		return r, c.Close()
	}

	warm := MustNew(cfg)
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
		bad := MustNew(cfg)
		corrupt(bad.FP)
		if _, err := restore(save(bad)); err == nil {
			t.Errorf("%s: restore accepted it", name)
		}
	}
}
