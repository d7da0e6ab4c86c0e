// Package isa defines the instruction set abstraction used by the simulator:
// instruction classes, operation latencies (Table 1 of the paper), register
// identifiers, and the static instruction representation that programs are
// built from.
//
// The simulated ISA is Alpha-like: 32 integer and 32 floating-point logical
// registers per thread, 4-byte fixed-width instructions, loads/stores through
// integer units, and the latency table of the Alpha 21164 as reported in the
// paper.
package isa

import "fmt"

// InstrBytes is the size of one instruction in the simulated ISA.
const InstrBytes = 4

// LogicalRegs is the number of architectural registers per register file
// (integer and floating point each) per thread.
const LogicalRegs = 32

// Class identifies the functional behaviour of an instruction. It determines
// which instruction queue the instruction occupies, which functional units
// can execute it, and its execution latency.
type Class uint8

// Instruction classes. Loads and stores are handled by the integer queue and
// the four load/store-capable integer units, matching the paper's machine.
const (
	ClassNop      Class = iota // no-op / squashed slot filler
	ClassIntALU                // all other integer: latency 1
	ClassIntMul                // integer multiply: latency 8 or 16
	ClassIntMulW               // wide integer multiply: latency 16
	ClassCondMove              // conditional move: latency 2
	ClassCompare               // compare: latency 0
	ClassLoad                  // load: latency 1 on cache hit
	ClassStore                 // store: address/data ready at exec
	ClassFPAdd                 // all other FP: latency 4
	ClassFPDiv                 // FP divide: latency 17
	ClassFPDivD                // FP divide double: latency 30
	ClassBranch                // conditional branch (integer unit)
	ClassJump                  // unconditional direct jump
	ClassJumpInd               // indirect jump (computed target)
	ClassCall                  // direct call (pushes return address)
	ClassReturn                // return (indirect through return address)
	numClasses
)

// NumClasses is the count of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassNop:      "nop",
	ClassIntALU:   "int",
	ClassIntMul:   "imul",
	ClassIntMulW:  "imulw",
	ClassCondMove: "cmov",
	ClassCompare:  "cmp",
	ClassLoad:     "load",
	ClassStore:    "store",
	ClassFPAdd:    "fp",
	ClassFPDiv:    "fdiv",
	ClassFPDivD:   "fdivd",
	ClassBranch:   "br",
	ClassJump:     "jmp",
	ClassJumpInd:  "jmpi",
	ClassCall:     "call",
	ClassReturn:   "ret",
}

// String returns a short mnemonic for the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Latency returns the execution latency in cycles for the class, per Table 1
// of the paper. Loads report their cache-hit latency; the memory system adds
// miss delays at execution time.
func (c Class) Latency() int {
	switch c {
	case ClassIntMul:
		return 8
	case ClassIntMulW:
		return 16
	case ClassCondMove:
		return 2
	case ClassCompare:
		return 0
	case ClassFPAdd:
		return 4
	case ClassFPDiv:
		return 17
	case ClassFPDivD:
		return 30
	case ClassLoad:
		return 1
	default:
		// All other integer operations, branches, jumps, calls, returns,
		// stores, and nops execute in a single cycle.
		return 1
	}
}

// IsFP reports whether the instruction occupies the floating-point
// instruction queue and executes on a floating-point unit.
func (c Class) IsFP() bool {
	switch c {
	case ClassFPAdd, ClassFPDiv, ClassFPDivD:
		return true
	}
	return false
}

// IsMem reports whether the instruction accesses the data cache.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsControl reports whether the instruction can change the program counter.
func (c Class) IsControl() bool {
	switch c {
	case ClassBranch, ClassJump, ClassJumpInd, ClassCall, ClassReturn:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (c Class) IsCondBranch() bool { return c == ClassBranch }

// Reg identifies a logical register within a thread. Integer registers are
// 0..31 and floating-point registers 32..63; RegNone marks an absent operand.
type Reg int16

// RegNone marks a missing source or destination operand.
const RegNone Reg = -1

// IntReg returns the Reg for integer logical register n (0..31).
func IntReg(n int) Reg { return Reg(n) }

// FPReg returns the Reg for floating-point logical register n (0..31).
func FPReg(n int) Reg { return Reg(n + LogicalRegs) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= LogicalRegs }

// Valid reports whether r names a register at all.
func (r Reg) Valid() bool { return r >= 0 && r < 2*LogicalRegs }

// Index returns the register number within its file (0..31).
func (r Reg) Index() int {
	if r.IsFP() {
		return int(r) - LogicalRegs
	}
	return int(r)
}

// String formats the register in assembler style (r7, f12).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", r.Index())
	default:
		return fmt.Sprintf("r%d", r.Index())
	}
}

// MemPattern describes how a static memory instruction generates addresses
// across its dynamic instances. The workload package interprets these.
type MemPattern uint8

// Memory access patterns used by the synthetic workload generator.
const (
	MemNone    MemPattern = iota
	MemStride             // sequential walk through a region (array sweep)
	MemRandom             // uniform random within a region (hash/table lookup)
	MemPointer            // pointer chase: random with strong reuse clustering
	MemStack              // small, hot region near the stack pointer
)

// Static is one instruction in a program's static code image. The simulator
// fetches Static instructions (possibly down wrong paths), renames their
// register operands, and executes them according to Class.
type Static struct {
	Class Class
	Dest  Reg // destination register or RegNone
	Src1  Reg // first source or RegNone
	Src2  Reg // second source or RegNone

	// Control flow (valid when Class.IsControl()):
	Target   int64 // branch/jump/call target PC; 0 for indirect
	BranchID int32 // dense index of this static branch within its program; -1 otherwise

	// Memory (valid when Class.IsMem()):
	Pattern MemPattern
	Region  int32 // index of the data region this access walks
	Stride  int32 // stride in bytes for MemStride
	MemID   int32 // dense index of this static memory op within its program; -1 otherwise
}

// String renders the instruction for debugging and traces.
func (s *Static) String() string {
	switch {
	case s.Class.IsControl():
		return fmt.Sprintf("%s -> %#x", s.Class, s.Target)
	case s.Class.IsMem():
		return fmt.Sprintf("%s %s, [region %d %s]", s.Class, s.Dest, s.Region, patternName(s.Pattern))
	default:
		return fmt.Sprintf("%s %s, %s, %s", s.Class, s.Dest, s.Src1, s.Src2)
	}
}

func patternName(p MemPattern) string {
	switch p {
	case MemStride:
		return "stride"
	case MemRandom:
		return "random"
	case MemPointer:
		return "pointer"
	case MemStack:
		return "stack"
	default:
		return "none"
	}
}
