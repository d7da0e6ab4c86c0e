package workload

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Region is a contiguous data area that memory instructions address.
type Region struct {
	Base int64
	Size int64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr int64) bool { return addr >= r.Base && addr < r.Base+r.Size }

// branchMeta describes the dynamic behaviour of one static control
// instruction; it is indexed by isa.Static.BranchID.
type branchMeta struct {
	kind      BranchKind
	takenProb float64 // biased / random / guard kinds
	tripMean  float64 // loop kind
	pattern   uint64  // pattern kind: repeating bit pattern
	period    uint8   // pattern kind: pattern length in bits
}

// Program is one synthetic benchmark instance: a static code image placed at
// a concrete base address, plus its data regions. A Program is a pure
// function of (Profile, seed, asid); two instances with equal parameters are
// identical.
type Program struct {
	Name    string
	Code    []isa.Static
	Base    int64 // PC of Code[0]
	Entry   int64 // entry PC
	Regions []Region
	Stack   Region

	NumBranches int // valid BranchIDs are [0, NumBranches)
	NumMemOps   int // valid MemIDs are [0, NumMemOps)

	branchMeta []branchMeta
	jumpTables [][]int64 // indexed by BranchID; nil except for indirect jumps
	seed       uint64
}

// addrSpaceBits is the bit position of the per-thread address-space tag.
// Tagging keeps distinct threads' addresses disjoint, as for separate
// processes in the paper's multiprogrammed workload.
const addrSpaceBits = 44

// frameBytes is the synthetic stack frame size used for stack-pattern
// addresses.
const frameBytes = 256

// maxCallDepth bounds walker recursion; recursion-guard branches are forced
// to their skip direction at this depth.
const maxCallDepth = 48

// New generates the program for profile p with the given seed, placed in
// address space asid (each simulated hardware context uses a distinct asid).
func New(p Profile, seed uint64, asid int) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if asid < 0 || asid >= 256 {
		return nil, fmt.Errorf("workload: asid %d out of range", asid)
	}
	// The per-program seed folds in the benchmark name and address space,
	// so distinct programs get uncorrelated behaviour AND uncorrelated
	// placement — two images placed at the same offset modulo the cache
	// size would conflict line-for-line in the direct-mapped L1I.
	progSeed := rng.Hash(seed, 0xBADC0DE, uint64(asid))
	for _, b := range []byte(p.Name) {
		progSeed = rng.Hash(progSeed, uint64(b))
	}
	src := rng.New(rng.Hash(progSeed, uint64(p.CodeInstrs)))
	g := &generator{
		p:      p,
		src:    src,
		clsSrc: src.Split(),
		memSrc: src.Split(),
		prog:   &Program{Name: p.Name, seed: progSeed},
	}
	g.generate()
	g.place(int64(asid+1) << addrSpaceBits)
	return g.prog, nil
}

// MustNew is New for callers with static parameters; it panics on error.
func MustNew(p Profile, seed uint64, asid int) *Program {
	prog, err := New(p, seed, asid)
	if err != nil {
		panic(err)
	}
	return prog
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// IndexOf maps a PC to a static instruction index. PCs outside the image
// wrap modulo the code size so that wrong-path fetch never faults.
func (p *Program) IndexOf(pc int64) int {
	idx := (pc - p.Base) / isa.InstrBytes
	n := int64(len(p.Code))
	idx %= n
	if idx < 0 {
		idx += n
	}
	return int(idx)
}

// PCOf maps a static instruction index to its PC.
func (p *Program) PCOf(idx int) int64 { return p.Base + int64(idx)*isa.InstrBytes }

// At returns the static instruction at pc (with wraparound, see IndexOf).
func (p *Program) At(pc int64) *isa.Static { return &p.Code[p.IndexOf(pc)] }

// generator holds the state of one program-generation run.
//
// Three independent random streams keep concerns separate: structure
// (procedure/loop/block shapes), instruction classes, and memory patterns.
// Tuning one profile dimension therefore cannot restructure the whole
// program.
type generator struct {
	p      Profile
	src    *rng.Source // structure stream
	clsSrc *rng.Source // instruction class / register stream
	memSrc *rng.Source // memory pattern / region stream
	prog   *Program

	procStart []int  // static index of each procedure's first instruction
	callFixes []fix  // call sites to patch once all procedures are placed
	recentInt []int8 // ring of recently written integer registers
	recentFP  []int8
	lastCmp   int8 // register holding the most recent compare result
	lastLoad  isa.Reg
	loadFresh int // countdown of instructions since last load for LoadUse
	destInt   int8
	destFP    int8

	// Error-diffusion credits for class selection: every window of emitted
	// computation matches the profile mix, so the dynamic mix is stable no
	// matter which loops dominate execution.
	fpCredit, loadCredit, storeCredit float64
	// Likewise for memory-pattern selection: whichever loop dominates
	// execution, its memory accesses carry the profile's pattern mix.
	strideCredit, pointerCredit, stackCredit float64
}

// fix records a call instruction whose target procedure index must be
// patched to a PC after generation.
type fix struct {
	site int // static index of the call
	proc int // callee procedure index
}

func (g *generator) generate() {
	p := g.p
	// The recent-destination window controls dependence distance: sources
	// drawn from a wider window form more independent chains (higher ILP),
	// as unrolled and software-pipelined loop bodies do.
	for r := int8(2); r < 9; r++ {
		g.recentInt = append(g.recentInt, r)
		g.recentFP = append(g.recentFP, r)
	}
	g.lastCmp = 1
	g.lastLoad = isa.RegNone

	// Divide the static budget across procedures: the first procedure (the
	// driver) gets a modest share; the rest split the remainder unevenly.
	budgets := make([]int, p.Procedures)
	remaining := p.CodeInstrs
	for i := range budgets {
		share := remaining / (len(budgets) - i)
		// Vary sizes by +/-50% to make procedure footprints irregular.
		v := share/2 + g.src.Intn(share+1)
		if i == len(budgets)-1 {
			v = remaining
		}
		if v < 16 {
			v = 16
		}
		budgets[i] = v
		remaining -= v
		if remaining < 16*(len(budgets)-i-1) {
			remaining = 16 * (len(budgets) - i - 1)
		}
	}

	recursive := make([]bool, p.Procedures)
	for i := 1; i < p.Procedures; i++ {
		recursive[i] = g.src.Bool(p.RecurseFrac)
	}

	for proc := 0; proc < p.Procedures; proc++ {
		g.procStart = append(g.procStart, len(g.prog.Code))
		g.genProcedure(proc, budgets[proc], recursive[proc])
	}

	// Patch call targets now that every procedure's start index is known.
	for _, f := range g.callFixes {
		g.prog.Code[f.site].Target = int64(g.procStart[f.proc])
	}
	g.prog.NumBranches = len(g.prog.branchMeta)
}

// genProcedure emits one procedure: prologue, structured body, epilogue.
// Procedure 0 is the driver: it wraps its body in an effectively-infinite
// loop so the walker never runs off the end of the program.
func (g *generator) genProcedure(proc, budget int, recursive bool) {
	// Prologue: a couple of stack stores (callee-save spills).
	for i := 0; i < 2; i++ {
		g.emitMem(isa.ClassStore, isa.MemStack)
	}
	bodyStart := len(g.prog.Code)
	g.genSeq(proc, budget-6, 0, recursive)
	if proc == 0 {
		// Driver loop: branch back to the body with taken probability 1.
		g.emitCompare()
		g.emitBranch(int64(bodyStart), branchMeta{kind: BranchBiased, takenProb: 1.0})
	}
	// Epilogue: reload spills, return.
	for i := 0; i < 2; i++ {
		g.emitMem(isa.ClassLoad, isa.MemStack)
	}
	g.emit(isa.Static{Class: isa.ClassReturn, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, BranchID: g.newBranch(branchMeta{}), MemID: -1})
}

// genSeq emits a sequence of basic blocks and control structures consuming
// roughly budget instructions. depth bounds loop nesting.
func (g *generator) genSeq(proc, budget, depth int, recursive bool) {
	p := g.p
	for budget > 8 {
		n := g.src.Geometric(p.AvgBlock)
		if n > budget {
			n = budget
		}
		for i := 0; i < n; i++ {
			g.emitComp()
		}
		budget -= n
		if budget <= 8 {
			return
		}
		switch {
		case depth < 3 && g.src.Bool(p.LoopFrac):
			// Loop: body is a nested sequence; the back-edge branch at the
			// bottom jumps to the loop head while iterations remain.
			bodyBudget := 8 + g.src.Intn(max(8, budget/2))
			if bodyBudget > budget-4 {
				bodyBudget = budget - 4
			}
			head := len(g.prog.Code)
			g.genSeq(proc, bodyBudget, depth+1, recursive)
			g.emitCompare()
			g.emitBranch(int64(head), branchMeta{kind: BranchLoop, tripMean: p.LoopTrip})
			budget -= bodyBudget + 2
		case g.src.Bool(p.IndirectFrac):
			budget -= g.genJumpTable(budget)
		case g.src.Bool(p.CallFrac):
			budget -= g.genCall(proc, recursive)
		default:
			// Skip diamond: a forward branch over a short then-block.
			budget -= g.genDiamond(budget)
		}
	}
	for ; budget > 0; budget-- {
		g.emitComp()
	}
}

// genDiamond emits "cmp; branch over k instructions; k instructions" and
// returns the number of instructions emitted.
func (g *generator) genDiamond(budget int) int {
	p := g.p
	k := 1 + g.src.Intn(max(2, int(p.AvgBlock)))
	if k > budget-2 {
		k = max(1, budget-2)
	}
	g.emitCompare()
	meta := g.drawCondMeta()
	site := len(g.prog.Code)
	g.emitBranch(0, meta) // target patched below
	for i := 0; i < k; i++ {
		g.emitComp()
	}
	g.prog.Code[site].Target = int64(len(g.prog.Code))
	return k + 2
}

// drawCondMeta picks the behaviour class of a non-loop conditional branch
// according to the profile's predictability mix.
func (g *generator) drawCondMeta() branchMeta {
	p := g.p
	switch u := g.src.Float64(); {
	case u < p.RandomBranchFrac:
		return branchMeta{kind: BranchRandom, takenProb: p.RandomTakenProb}
	case u < p.RandomBranchFrac+p.PatternBranchFrac:
		period := uint8(2 + g.src.Intn(6))
		return branchMeta{kind: BranchPattern, pattern: g.src.Uint64(), period: period}
	default:
		// Biased branches skip (taken) or fall through with equal frequency
		// across sites; each site is individually strongly biased.
		prob := p.BiasedTakenProb
		if g.src.Bool(0.5) {
			prob = 1 - prob
		}
		return branchMeta{kind: BranchBiased, takenProb: prob}
	}
}

// genCall emits a call to another procedure. Recursive procedures wrap a
// self-call in a guard diamond so the walker can bound recursion depth.
// Returns instructions emitted.
func (g *generator) genCall(proc int, recursive bool) int {
	if recursive && g.src.Bool(0.5) {
		// if (!guard) self();
		g.emitCompare()
		site := len(g.prog.Code)
		g.emitBranch(0, branchMeta{kind: BranchGuard, takenProb: 0.4})
		g.emitCall(proc)
		g.prog.Code[site].Target = int64(len(g.prog.Code))
		return 3
	}
	// Layered call graph: prefer procedures later in the image (leafward).
	if proc+1 >= g.p.Procedures {
		g.emitComp()
		return 1
	}
	callee := proc + 1 + g.src.Intn(g.p.Procedures-proc-1)
	g.emitCall(callee)
	return 1
}

// genJumpTable emits a switch: an indirect jump to one of several case
// blocks, each of which jumps to the join point. Returns instructions used.
func (g *generator) genJumpTable(budget int) int {
	cases := 3 + g.src.Intn(6)
	caseLen := 2 + g.src.Intn(4)
	need := 1 + cases*(caseLen+1)
	if need > budget {
		return g.genDiamond(budget)
	}
	bid := g.newBranch(branchMeta{})
	g.emit(isa.Static{Class: isa.ClassJumpInd, Dest: isa.RegNone, Src1: isa.IntReg(int(g.lastCmp)), Src2: isa.RegNone, BranchID: bid, MemID: -1})
	targets := make([]int64, cases)
	var joinFixes []int
	for c := 0; c < cases; c++ {
		targets[c] = int64(len(g.prog.Code))
		for i := 0; i < caseLen; i++ {
			g.emitComp()
		}
		jb := g.newBranch(branchMeta{})
		joinFixes = append(joinFixes, len(g.prog.Code))
		g.emit(isa.Static{Class: isa.ClassJump, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, BranchID: jb, MemID: -1})
	}
	join := int64(len(g.prog.Code))
	for _, f := range joinFixes {
		g.prog.Code[f].Target = join
	}
	g.prog.jumpTables[bid] = targets
	return need
}

// emitComp emits one computation instruction. Class selection uses error
// diffusion against the profile mix: credits accumulate each slot and the
// largest credit wins, with a small random jitter so the sequence is not
// rigidly periodic. Every ~20-instruction window of the image then carries
// the profile's mix.
func (g *generator) emitComp() {
	p := g.p
	g.fpCredit += p.FPFrac
	g.loadCredit += p.LoadFrac
	g.storeCredit += p.StoreFrac
	jitter := g.clsSrc.Float64() * 0.3
	switch {
	case g.fpCredit+jitter >= 1:
		g.fpCredit--
		cls := isa.ClassFPAdd
		if g.clsSrc.Bool(p.FPDivFrac) {
			if g.clsSrc.Bool(0.5) {
				cls = isa.ClassFPDiv
			} else {
				cls = isa.ClassFPDivD
			}
		}
		if cls == isa.ClassFPAdd && g.clsSrc.Bool(p.AccumFrac) {
			// Loop-carried reduction (sum += x): a serial chain register
			// renaming cannot break — the classic fp ILP limiter.
			g.emit(isa.Static{
				Class: cls, Dest: isa.FPReg(30),
				Src1: isa.FPReg(30), Src2: g.srcFP(), BranchID: -1, MemID: -1,
			})
			return
		}
		g.emit(isa.Static{
			Class: cls, Dest: g.nextFPDest(),
			Src1: g.srcFP(), Src2: g.srcFP(), BranchID: -1, MemID: -1,
		})
	case g.loadCredit+jitter >= 1:
		g.loadCredit--
		g.emitMem(isa.ClassLoad, g.drawPattern())
	case g.storeCredit+jitter >= 1:
		g.storeCredit--
		g.emitMem(isa.ClassStore, g.drawPattern())
	default:
		cls := isa.ClassIntALU
		switch {
		case g.clsSrc.Bool(p.IntMulFrac):
			if g.clsSrc.Bool(0.5) {
				cls = isa.ClassIntMul
			} else {
				cls = isa.ClassIntMulW
			}
		case g.clsSrc.Bool(p.CondMovFrac):
			cls = isa.ClassCondMove
		}
		if cls == isa.ClassIntALU && g.clsSrc.Bool(p.AccumFrac) {
			// Loop-carried integer chain (counters, running totals,
			// pointer increments): serial through renaming.
			g.emit(isa.Static{
				Class: cls, Dest: isa.IntReg(30),
				Src1: isa.IntReg(30), Src2: g.srcInt(), BranchID: -1, MemID: -1,
			})
			return
		}
		g.emit(isa.Static{
			Class: cls, Dest: g.nextIntDest(),
			Src1: g.srcInt(), Src2: g.srcInt(), BranchID: -1, MemID: -1,
		})
	}
}

// drawPattern picks a memory access pattern by error diffusion against the
// profile mix, so every window of memory instructions — in particular every
// hot loop body — carries the profile's pattern proportions.
func (g *generator) drawPattern() isa.MemPattern {
	p := g.p
	g.strideCredit += p.StrideFrac
	g.pointerCredit += p.PointerFrac
	g.stackCredit += p.StackFrac
	jitter := g.memSrc.Float64() * 0.3
	switch {
	case g.stackCredit+jitter >= 1:
		g.stackCredit--
		return isa.MemStack
	case g.strideCredit+jitter >= 1:
		g.strideCredit--
		return isa.MemStride
	case g.pointerCredit+jitter >= 1:
		g.pointerCredit--
		return isa.MemPointer
	default:
		return isa.MemRandom
	}
}

var strides = []int32{8, 8, 8, 8, 8, 16, 32}

// emitMem emits a load or store with the given pattern.
func (g *generator) emitMem(cls isa.Class, pat isa.MemPattern) {
	s := isa.Static{
		Class: cls, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		Pattern: pat, BranchID: -1,
		MemID: int32(g.prog.NumMemOps),
	}
	g.prog.NumMemOps++
	// Each access pattern concentrates in designated regions — programs
	// have a couple of main arrays, one heap, and one lookup table — so the
	// per-thread hot set stays a few KB, as in real codes. Remaining
	// regions are cold bulk reached only by excursions.
	switch pat {
	case isa.MemStack:
		s.Region = -1
	case isa.MemStride:
		s.Region = int32(g.memSrc.Intn(min(2, g.p.NumRegions)))
	case isa.MemPointer:
		s.Region = int32(2 % g.p.NumRegions)
	default: // MemRandom
		s.Region = int32(3 % g.p.NumRegions)
	}
	if pat == isa.MemStride {
		s.Stride = strides[g.memSrc.Intn(len(strides))]
	}
	s.Src1 = g.srcInt() // address base
	if cls == isa.ClassLoad {
		// Loads target the fp file in proportion to fp compute density.
		if g.clsSrc.Bool(g.p.FPFrac * 1.3) {
			s.Dest = g.nextFPDest()
		} else {
			s.Dest = g.nextIntDest()
		}
		g.lastLoad = s.Dest
		g.loadFresh = 3
	} else {
		s.Src2 = g.srcAny() // store data
	}
	g.emit(s)
}

// emitCompare emits the compare that feeds a subsequent branch.
func (g *generator) emitCompare() {
	dest := g.nextIntDest()
	g.emit(isa.Static{
		Class: isa.ClassCompare, Dest: dest,
		Src1: g.srcInt(), Src2: g.srcInt(), BranchID: -1, MemID: -1,
	})
	g.lastCmp = int8(dest.Index())
}

// emitBranch emits a conditional branch consuming the last compare result.
// target is a static instruction index, patched to a PC by place.
func (g *generator) emitBranch(target int64, meta branchMeta) {
	bid := g.newBranch(meta)
	g.emit(isa.Static{
		Class: isa.ClassBranch, Dest: isa.RegNone, Src1: isa.IntReg(int(g.lastCmp)), Src2: isa.RegNone,
		Target: target, BranchID: bid, MemID: -1,
	})
}

// emitCall emits a direct call; the target is patched after generation.
func (g *generator) emitCall(callee int) {
	bid := g.newBranch(branchMeta{})
	g.callFixes = append(g.callFixes, fix{site: len(g.prog.Code), proc: callee})
	g.emit(isa.Static{Class: isa.ClassCall, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, BranchID: bid, MemID: -1})
}

func (g *generator) emit(s isa.Static) {
	g.prog.Code = append(g.prog.Code, s)
}

// newBranch registers control-instruction metadata and returns its BranchID.
func (g *generator) newBranch(meta branchMeta) int32 {
	id := int32(len(g.prog.branchMeta))
	g.prog.branchMeta = append(g.prog.branchMeta, meta)
	g.prog.jumpTables = append(g.prog.jumpTables, nil)
	return id
}

// nextIntDest rotates destination registers through r2..r25, keeping a ring
// of recent destinations that sources preferentially read (DepChain).
func (g *generator) nextIntDest() isa.Reg {
	g.destInt++
	r := int8(2 + (int(g.destInt) % 24))
	g.recentInt = append(g.recentInt[1:], r)
	return isa.IntReg(int(r))
}

func (g *generator) nextFPDest() isa.Reg {
	g.destFP++
	r := int8(2 + (int(g.destFP) % 24))
	g.recentFP = append(g.recentFP[1:], r)
	return isa.FPReg(int(r))
}

// srcInt picks an integer source register: a fresh load result (load-use
// dependence), a recent destination (serial chain), or a cold register.
func (g *generator) srcInt() isa.Reg {
	if g.loadFresh > 0 && g.lastLoad.Valid() && !g.lastLoad.IsFP() && g.clsSrc.Bool(g.p.LoadUse) {
		g.loadFresh--
		return g.lastLoad
	}
	if g.clsSrc.Bool(g.p.DepChain) {
		return isa.IntReg(int(g.recentInt[g.clsSrc.Intn(len(g.recentInt))]))
	}
	return isa.IntReg(26 + g.clsSrc.Intn(6)) // long-lived values (r26..r31)
}

func (g *generator) srcFP() isa.Reg {
	if g.loadFresh > 0 && g.lastLoad.Valid() && g.lastLoad.IsFP() && g.clsSrc.Bool(g.p.LoadUse) {
		g.loadFresh--
		return g.lastLoad
	}
	if g.clsSrc.Bool(g.p.DepChain) {
		return isa.FPReg(int(g.recentFP[g.clsSrc.Intn(len(g.recentFP))]))
	}
	return isa.FPReg(26 + g.clsSrc.Intn(6))
}

func (g *generator) srcAny() isa.Reg {
	if g.p.FPFrac > 0 && g.clsSrc.Bool(g.p.FPFrac) {
		return g.srcFP()
	}
	return g.srcInt()
}

// place assigns concrete addresses: the code image, the data regions, and
// the stack all land at pseudo-random (but deterministic) offsets inside the
// thread's tagged address space, then instruction-index targets are patched
// into PCs.
func (g *generator) place(tag int64) {
	p, prog := g.p, g.prog
	const lineMask = ^int64(63) // 64-byte alignment

	prog.Base = tag | (int64(rng.Hash(prog.seed, 1)%(16<<20)) & lineMask)
	prog.Entry = prog.Base

	// Patch control-flow targets from static indices to PCs. Indirect-jump
	// tables are patched likewise.
	for i := range prog.Code {
		s := &prog.Code[i]
		if s.Class.IsControl() && s.Class != isa.ClassReturn && s.Class != isa.ClassJumpInd {
			s.Target = prog.PCOf(int(s.Target))
		}
	}
	for bid, tbl := range prog.jumpTables {
		for j, t := range tbl {
			prog.jumpTables[bid][j] = prog.PCOf(int(t))
		}
	}

	// Data regions, scattered within a 1GB heap window. Region roles match
	// emitMem's pattern assignment: 0 and 1 are the main arrays, 2 the
	// heap, 3 the lookup tables, the rest cold bulk.
	totalBytes := int64(p.DataKB) << 10
	sizes := make([]int64, p.NumRegions)
	weights := []int64{35, 25, 20, 10}
	assigned := int64(0)
	for i := 0; i < p.NumRegions && i < len(weights); i++ {
		sizes[i] = totalBytes * weights[i] / 100
		assigned += sizes[i]
	}
	for i := len(weights); i < p.NumRegions; i++ {
		sizes[i] = (totalBytes - assigned) / int64(p.NumRegions-len(weights))
	}
	heapBase := tag | (1 << 30)
	for i, size := range sizes {
		if size < 1024 {
			size = 1024
		}
		offset := int64(rng.Hash(prog.seed, 2, uint64(i))%(1<<30)) & lineMask
		prog.Regions = append(prog.Regions, Region{Base: heapBase + offset, Size: size})
	}
	// The stack lands at a program-specific offset: identical placement
	// across programs would make every thread's hottest lines collide in
	// the same direct-mapped sets.
	prog.Stack = Region{
		Base: tag | (3 << 30) | (int64(rng.Hash(prog.seed, 3)%(1<<20)) & lineMask),
		Size: int64(maxCallDepth+2) * frameBytes,
	}
}

// drawTrip draws a loop trip count. Each loop site has a stable base trip
// count (drawn once from an exponential around the profile mean), and most
// entries use exactly that base — loop bounds in real programs are usually
// the same from call to call, which is what lets history-based predictors
// learn short-loop exits. A minority of entries jitter around the base.
func drawTrip(seed uint64, bid int32, entry uint32, mean float64) int32 {
	if mean < 1 {
		mean = 1
	}
	hb := rng.Hash(seed, uint64(bid), 0x7219)
	u := float64(hb>>11) / (1 << 53)
	if u >= 1 {
		u = 0.999999
	}
	base := 1 + int32(-(mean-1)*math.Log(1-u))
	he := rng.Hash(seed, uint64(bid), uint64(entry), 0x7A1E)
	if he%100 < 85 { // most entries: the site's usual bound
		return base
	}
	jitter := int32(he>>8%uint64(base/2+2)) - int32(base/4)
	trip := base + jitter
	if trip < 1 {
		trip = 1
	}
	const maxTrip = 1 << 20
	if trip > maxTrip {
		trip = maxTrip
	}
	return trip
}
