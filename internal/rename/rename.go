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
//
// Beside its ready time, each physical register carries two facts about
// its in-flight producer, stated by the core that owns the instruction:
// whether reading it now is optimistic (Section 2's optimistic issue: the
// producer is an unverified load or itself optimistic) and whether the
// producer has a zero-latency class. The issue stage asks both of a source
// register instead of finding its producer.
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

// Config sizes the rename subsystem. The number of hardware contexts is
// the machine's (core.Config.Threads) and is passed alongside.
type Config struct {
	ExcessRegs int // renaming registers beyond threads*32, per file
}

// PhysPerFile returns the total physical registers per file for a machine
// of threads hardware contexts.
func (c Config) PhysPerFile(threads int) int {
	return threads*isa.LogicalRegs + c.ExcessRegs
}

// maxPhysPerFile bounds a register file, whose size is an allocation: a
// configuration can arrive from the network. The paper's largest machine
// has 356 registers a file and sec7's "unlimited" row asks for 100 000
// excess ones; this is finiteness, not policy.
const maxPhysPerFile = 1 << 17

// Validate reports configuration errors for a machine of threads hardware
// contexts.
func (c Config) Validate(threads int) error {
	if threads < 1 {
		return fmt.Errorf("rename: %d threads, want >= 1", threads)
	}
	need := threads * isa.LogicalRegs
	total := c.PhysPerFile(threads)
	if total < need+1 {
		return fmt.Errorf("rename: ExcessRegs %d leave %d physical registers for %d threads (need > %d)",
			c.ExcessRegs, total, threads, need)
	}
	if total > maxPhysPerFile {
		return fmt.Errorf("rename: ExcessRegs %d make %d physical registers a file, want <= %d",
			c.ExcessRegs, total, maxPhysPerFile)
	}
	return nil
}

// File is one register file's rename state (integer or floating point).
type File struct {
	mapTable []PhysReg // thread*32 + logical -> physical
	free     []PhysReg // LIFO free list
	regs     []physReg
	total    int
}

// physReg is one physical register's timing: when dependents may read it,
// and two facts the core states about its in-flight producer, kept beside
// readyAt so the issue stage reads a source in one place.
type physReg struct {
	readyAt int64 // cycle usable by dependents
	risk    bool  // reading it now is optimistic: the producer could yet be squashed
	instant bool  // the producer has a zero-latency class
}

// newFile builds a file with each thread's logical registers pre-mapped and
// ready.
func newFile(threads, total int) *File {
	f := &File{
		mapTable: make([]PhysReg, threads*isa.LogicalRegs),
		regs:     make([]physReg, total),
		total:    total,
	}
	for i := range f.mapTable {
		f.mapTable[i] = PhysReg(i)
	}
	for p := len(f.mapTable); p < total; p++ {
		f.free = append(f.free, PhysReg(p))
		f.regs[p].readyAt = NotReady
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
	f.regs[dest].readyAt, f.regs[dest].risk = NotReady, false
	return dest, old, true
}

// CommitFree releases the physical register displaced by a committing
// instruction (its destination's previous mapping).
func (f *File) CommitFree(old PhysReg) {
	if old != None {
		f.regs[old].readyAt, f.regs[old].risk = NotReady, false
		f.free = append(f.free, old)
	}
}

// Rollback undoes one Allocate during a squash walk: the logical register's
// mapping reverts to old and dest returns to the free list. Squashed
// instructions must be rolled back youngest-first.
func (f *File) Rollback(thread int, reg int, dest, old PhysReg) {
	idx := thread*isa.LogicalRegs + reg
	f.mapTable[idx] = old
	f.regs[dest].readyAt, f.regs[dest].risk = NotReady, false
	f.free = append(f.free, dest)
}

// ReadyAt returns the cycle at which a dependent instruction may issue
// reading this register (NotReady if unscheduled). None is always ready.
func (f *File) ReadyAt(p PhysReg) int64 {
	if p == None {
		return 0
	}
	return f.regs[p].readyAt
}

// SetReady schedules the register's availability: dependents may issue at
// or after cycle. Used at producer issue (issue cycle + latency) and
// corrected upward when a load turns out to miss.
func (f *File) SetReady(p PhysReg, cycle int64) {
	if p != None {
		f.regs[p].readyAt = cycle
	}
}

// AtRisk reports whether reading the register now is optimistic: its
// producer's schedule is unverified, so an instruction issued on it keeps
// its queue slot until the producer verifies. None never is.
func (f *File) AtRisk(p PhysReg) bool {
	return p != None && f.regs[p].risk
}

// SetAtRisk records whether reading the register is optimistic. Allocate,
// Rollback and CommitFree clear it.
func (f *File) SetAtRisk(p PhysReg, risk bool) { f.regs[p].risk = risk }

// Instant reports whether the register's producer has a zero-latency class.
func (f *File) Instant(p PhysReg) bool { return f.regs[p].instant }

// SetInstant records whether the register's producer, named at rename, has
// a zero-latency class.
func (f *File) SetInstant(p PhysReg, instant bool) { f.regs[p].instant = instant }

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
	Int *File
	FP  *File
}

// New builds a Renamer from cfg for threads hardware contexts.
func New(cfg Config, threads int) (*Renamer, error) {
	if err := cfg.Validate(threads); err != nil {
		return nil, err
	}
	total := cfg.PhysPerFile(threads)
	return &Renamer{
		Int: newFile(threads, total),
		FP:  newFile(threads, total),
	}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config, threads int) *Renamer {
	r, err := New(cfg, threads)
	if err != nil {
		panic(err)
	}
	return r
}

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
