// Package rename implements register renaming onto a shared physical
// register file, the paper's mechanism for removing false dependences and —
// crucially for SMT — for removing all apparent inter-thread dependences, so
// that a conventional instruction queue can schedule instructions from every
// thread without knowing about threads at all.
//
// Per the paper's Section 2: each thread's 32 logical registers (per file:
// integer and floating point) are mapped onto one completely shared physical
// file sized Threads*32 plus "excess" renaming registers (100 in the
// baseline). The number of free renaming registers bounds the instructions
// in flight between rename and commit; running out stalls the rename stage
// (the paper's "out-of-registers" cycles).
//
// Recovery from branch mispredictions walks squashed instructions youngest-
// first, unmapping each destination and freeing its physical register —
// exactly inverse to rename order, which restores the map table without
// checkpoints.
package rename

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// PhysReg names a physical register within one file.
type PhysReg int32

// None marks the absence of a physical register operand.
const None PhysReg = -1

// NotReady is the ready-time of a physical register whose value has not been
// scheduled yet.
const NotReady int64 = math.MaxInt64

// Config sizes the rename subsystem.
type Config struct {
	Threads    int
	ExcessRegs int // renaming registers beyond Threads*32, per file
	TotalRegs  int // if nonzero, total physical registers per file (overrides ExcessRegs)
}

// PhysPerFile returns the total physical registers per file implied by the
// configuration.
func (c Config) PhysPerFile() int {
	if c.TotalRegs > 0 {
		return c.TotalRegs
	}
	return c.Threads*isa.LogicalRegs + c.ExcessRegs
}

// maxPhysPerFile bounds a register file, whose size is an allocation: a
// configuration can arrive from the network. The paper's largest machine
// has 356 registers a file and sec7's "unlimited" row asks for 100 000
// excess ones; this is finiteness, not policy.
const maxPhysPerFile = 1 << 17

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("rename: Threads = %d, want >= 1", c.Threads)
	}
	need := c.Threads * isa.LogicalRegs
	total := c.PhysPerFile()
	if total < need+1 {
		return fmt.Errorf("rename: %d physical registers cannot hold %d threads (need > %d)",
			total, c.Threads, need)
	}
	if total > maxPhysPerFile {
		return fmt.Errorf("rename: ExcessRegs %d / TotalRegs %d make %d physical registers a file, want <= %d",
			c.ExcessRegs, c.TotalRegs, total, maxPhysPerFile)
	}
	return nil
}

// File is one register file's rename state (integer or floating point).
type File struct {
	mapTable []PhysReg // thread*32 + logical -> physical
	free     []PhysReg // LIFO free list
	readyAt  []int64   // per physical register: cycle usable by dependents
	total    int
}

// newFile builds a file with each thread's logical registers pre-mapped and
// ready.
func newFile(threads, total int) *File {
	f := &File{
		mapTable: make([]PhysReg, threads*isa.LogicalRegs),
		readyAt:  make([]int64, total),
		total:    total,
	}
	for i := range f.mapTable {
		f.mapTable[i] = PhysReg(i)
		f.readyAt[i] = 0
	}
	for p := len(f.mapTable); p < total; p++ {
		f.free = append(f.free, PhysReg(p))
		f.readyAt[p] = NotReady
	}
	return f
}

// FreeCount returns the number of free (allocatable) physical registers.
func (f *File) FreeCount() int { return len(f.free) }

// Total returns the file's physical register count.
func (f *File) Total() int { return f.total }

// Lookup returns the current physical mapping of a logical register.
func (f *File) Lookup(thread int, reg int) PhysReg {
	return f.mapTable[thread*isa.LogicalRegs+reg]
}

// Allocate maps (thread, reg) to a fresh physical register, returning the
// new and previous mappings. ok is false — with no state change — when the
// free list is empty (rename stalls).
func (f *File) Allocate(thread int, reg int) (dest, old PhysReg, ok bool) {
	if len(f.free) == 0 {
		return None, None, false
	}
	dest = f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	idx := thread*isa.LogicalRegs + reg
	old = f.mapTable[idx]
	f.mapTable[idx] = dest
	f.readyAt[dest] = NotReady
	return dest, old, true
}

// CommitFree releases the physical register displaced by a committing
// instruction (its destination's previous mapping).
func (f *File) CommitFree(old PhysReg) {
	if old != None {
		f.readyAt[old] = NotReady
		f.free = append(f.free, old)
	}
}

// Rollback undoes one Allocate during a squash walk: the logical register's
// mapping reverts to old and dest returns to the free list. Squashed
// instructions must be rolled back youngest-first.
func (f *File) Rollback(thread int, reg int, dest, old PhysReg) {
	idx := thread*isa.LogicalRegs + reg
	f.mapTable[idx] = old
	f.readyAt[dest] = NotReady
	f.free = append(f.free, dest)
}

// ReadyAt returns the cycle at which a dependent instruction may issue
// reading this register (NotReady if unscheduled). None is always ready.
func (f *File) ReadyAt(p PhysReg) int64 {
	if p == None {
		return 0
	}
	return f.readyAt[p]
}

// SetReady schedules the register's availability: dependents may issue at
// or after cycle. Used at producer issue (issue cycle + latency) and
// corrected upward when a load turns out to miss.
func (f *File) SetReady(p PhysReg, cycle int64) {
	if p != None {
		f.readyAt[p] = cycle
	}
}

// CheckConsistency validates structural invariants: the free list holds no
// duplicates and no register is simultaneously free and mapped. It is
// O(total) and intended for tests and debugging assertions.
func (f *File) CheckConsistency() error {
	seen := make(map[PhysReg]bool, len(f.free))
	for _, r := range f.free {
		if seen[r] {
			return fmt.Errorf("rename: register %d on free list twice", r)
		}
		seen[r] = true
	}
	for i, m := range f.mapTable {
		if seen[m] {
			return fmt.Errorf("rename: register %d both free and mapped (thread %d reg %d)",
				m, i/isa.LogicalRegs, i%isa.LogicalRegs)
		}
	}
	return nil
}

// Renamer bundles the integer and floating-point rename files.
type Renamer struct {
	cfg Config
	Int *File
	FP  *File
}

// New builds a Renamer from cfg.
func New(cfg Config) (*Renamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := cfg.PhysPerFile()
	return &Renamer{
		cfg: cfg,
		Int: newFile(cfg.Threads, total),
		FP:  newFile(cfg.Threads, total),
	}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Renamer {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the renamer's configuration.
func (r *Renamer) Config() Config { return r.cfg }

// FileFor returns the file holding reg (integer or floating point).
func (r *Renamer) FileFor(reg isa.Reg) *File {
	if reg.IsFP() {
		return r.FP
	}
	return r.Int
}

// SrcPhys returns the physical register currently mapped for a source
// operand, or None when the operand is absent.
func (r *Renamer) SrcPhys(thread int, reg isa.Reg) PhysReg {
	if !reg.Valid() {
		return None
	}
	return r.FileFor(reg).Lookup(thread, reg.Index())
}

// CanAllocate reports whether a destination in reg's file can be renamed
// this cycle without stalling.
func (r *Renamer) CanAllocate(reg isa.Reg) bool {
	if !reg.Valid() {
		return true
	}
	return r.FileFor(reg).FreeCount() > 0
}
