package workload

import (
	"repro/internal/isa"
	"repro/internal/rng"
)

// DynRecord is one architectural (correct-path) dynamic instruction produced
// by the Walker: which static instruction executed, its control outcome, and
// its memory address. The simulator consumes these in order as it fetches
// along the correct path and uses them to resolve branches and drive the data
// cache; wrong-path instructions never consume records.
type DynRecord struct {
	Idx    int32 // static instruction index
	PC     int64 // this instruction's PC
	NextPC int64 // PC of the next architectural instruction
	Addr   int64 // effective address for loads/stores, else 0
	Taken  bool  // control transfers: whether the branch/jump was taken
}

// Walker is the architectural oracle for one thread: it walks the program's
// correct execution path, resolving branch outcomes, loop trip counts,
// recursion depth, and memory addresses deterministically from the program
// seed. It is the stand-in for the paper's instruction-level emulator.
type Walker struct {
	prog *Program
	pc   int64
	seq  uint64 // dynamic instructions produced

	callStack []int64
	loopRem   []int32  // per BranchID: iterations remaining, -1 = inactive
	entrySeq  []uint32 // per BranchID: dynamic encounter count
	memState  []int64  // per MemID: stride cursor or access counter
}

// NewWalker returns a Walker positioned at the program entry.
func NewWalker(p *Program) *Walker {
	w := &Walker{
		prog:     p,
		pc:       p.Entry,
		loopRem:  make([]int32, p.NumBranches),
		entrySeq: make([]uint32, p.NumBranches),
		memState: make([]int64, p.NumMemOps),
	}
	for i := range w.loopRem {
		w.loopRem[i] = -1
	}
	return w
}

// PC returns the PC of the next architectural instruction.
func (w *Walker) PC() int64 { return w.pc }

// Next produces the next architectural instruction record and advances.
func (w *Walker) Next() DynRecord {
	p := w.prog
	idx := p.IndexOf(w.pc)
	s := &p.Code[idx]
	rec := DynRecord{Idx: int32(idx), PC: w.pc, NextPC: w.pc + isa.InstrBytes}

	switch {
	case s.Class.IsControl():
		w.resolveControl(s, &rec)
	case s.Class.IsMem():
		rec.Addr = w.address(s)
	}

	w.pc = rec.NextPC
	w.seq++
	return rec
}

// resolveControl computes taken/target for a control instruction: the
// walker draws what only it can resolve — a conditional branch's direction
// and an indirect jump's table slot — and the program's code does the rest.
func (w *Walker) resolveControl(s *isa.Static, rec *DynRecord) {
	var taken bool
	var slot uint64
	switch s.Class {
	case isa.ClassBranch:
		taken = w.condOutcome(s)
	case isa.ClassJumpInd:
		slot = w.jumpSlot(s)
	}
	rec.NextPC, rec.Taken = w.prog.transfer(s, rec.PC, &w.callStack, taken, slot)
}

// jumpSlot picks which entry of an indirect jump's table this instance
// takes. Switch dispatch is skewed in practice: one case dominates (the
// common token/opcode), so a BTB predicting the last target is right most
// of the time, as in real interpreters.
func (w *Walker) jumpSlot(s *isa.Static) uint64 {
	p, bid := w.prog, s.BranchID
	n := uint64(len(p.jumpTables[bid]))
	if n == 0 {
		return 0 // degenerate table: transfer falls through
	}
	h := rng.Hash(p.progSeed, uint64(bid), uint64(w.entrySeq[bid]))
	w.entrySeq[bid]++
	if h%100 < 85 {
		return uint64(bid) % n // the site's hot case
	}
	return (h >> 8) % n
}

// transfer returns the successor of control instruction s at pc, and
// whether control transferred, given the outcomes only a walker can draw —
// a conditional branch's direction and an indirect jump's table slot —
// keeping stack as the walk's return addresses. Every other successor
// follows from the code: direct targets, fall-through, and the return
// stack. The walker and a trace cursor both step through here.
func (p *Program) transfer(s *isa.Static, pc int64, stack *[]int64, taken bool, slot uint64) (next int64, transferred bool) {
	next = pc + isa.InstrBytes
	switch s.Class {
	case isa.ClassBranch:
		if taken {
			next = s.Target
		}
		return next, taken
	case isa.ClassJump:
		next = s.Target
	case isa.ClassJumpInd:
		if targets := p.jumpTables[s.BranchID]; len(targets) > 0 {
			next = targets[slot]
		}
	case isa.ClassCall:
		// At the (never reached in practice) stack cap the call falls
		// through, keeping the walk well defined.
		if len(*stack) < maxCallDepth+8 {
			*stack = append(*stack, pc+isa.InstrBytes)
			next = s.Target
		}
	case isa.ClassReturn:
		if n := len(*stack); n > 0 {
			next = (*stack)[n-1]
			*stack = (*stack)[:n-1]
		} else {
			next = p.Entry // returning from the driver restarts it
		}
	}
	return next, true
}

// condOutcome resolves a conditional branch according to its behaviour class.
func (w *Walker) condOutcome(s *isa.Static) bool {
	p := w.prog
	bid := s.BranchID
	meta := &p.branchMeta[bid]
	switch meta.kind {
	case BranchLoop:
		if w.loopRem[bid] < 0 {
			trips := drawTrip(p.progSeed, bid, w.entrySeq[bid], meta.tripMean)
			w.entrySeq[bid]++
			w.loopRem[bid] = trips - 1
		}
		if w.loopRem[bid] > 0 {
			w.loopRem[bid]--
			return true
		}
		w.loopRem[bid] = -1
		return false
	case BranchPattern:
		bit := w.entrySeq[bid] % uint32(meta.period)
		w.entrySeq[bid]++
		return meta.pattern>>bit&1 == 1
	case BranchGuard:
		// Recursion terminates at a per-site depth threshold (the data
		// structure's typical depth), occasionally one level off. The
		// resulting taken pattern is bursty and largely learnable, like
		// real recursive traversals.
		if len(w.callStack) >= maxCallDepth {
			return true // forced skip of the recursive call
		}
		threshold := 2 + int(rng.Hash(p.progSeed, uint64(bid), 0xDE9)%4)
		h := rng.Hash(p.progSeed, uint64(bid), uint64(w.entrySeq[bid]), 0x6A)
		w.entrySeq[bid]++
		if h%100 < 15 {
			threshold += int(h>>8%3) - 1
		}
		return len(w.callStack) >= threshold
	default: // BranchBiased, BranchRandom
		return w.bernoulli(bid, meta.takenProb)
	}
}

func (w *Walker) bernoulli(bid int32, prob float64) bool {
	u := float64(rng.Hash(w.prog.progSeed, uint64(bid), uint64(w.entrySeq[bid]))>>11) / (1 << 53)
	w.entrySeq[bid]++
	return u < prob
}

// pointer-chase tuning: accesses cluster within clusterBytes and move to a
// new cluster every clusterReuse accesses, modelling node-local traversal
// with reuse (lists and trees revisit recently allocated nodes far more
// often than cold ones).
const (
	clusterBytes = 1024
	clusterReuse = 32
)

// Random (table-lookup) accesses are skewed: most hit a small popular
// prefix of the region, as real lookup tables do, with an unpopular tail.
const (
	popularBytes = 2 << 10
	popularProb  = 0.9 // fraction of random accesses hitting the prefix
)

// address computes the effective address of a memory instruction instance.
func (w *Walker) address(s *isa.Static) int64 {
	p := w.prog
	switch s.Pattern {
	case isa.MemStack:
		frame := int64(len(w.callStack)) * frameBytes
		off := int64(rng.Hash(p.progSeed, uint64(s.MemID))%(frameBytes-8)) &^ 7
		return p.Stack.Base + frame + off
	case isa.MemStride:
		// A strided load sweeps a window of its region repeatedly, the way
		// loop nests re-walk the same array slice across outer iterations.
		// Sites share a handful of window anchors per region — several loads
		// in one loop walk the same array — so the program's active set is a
		// few windows per region, not one per static instruction. Window
		// sizes vary from 2KB (L1-resident) to 16KB (L2 and bandwidth).
		r := p.Regions[s.Region]
		h := rng.Hash(p.progSeed, 0x57E, uint64(s.MemID))
		// Window sizes weighted toward small (L1-resident): most loop
		// slices are short; a minority sweep L2-sized or larger slices.
		// Huge regions (tomcatv-style arrays) sweep up to 64KB.
		var shift uint64
		switch v := h % 20; {
		case v < 13:
			shift = 0 // 2KB
		case v < 18:
			shift = 1 // 4KB
		case v < 19:
			shift = 2 // 8KB
		default:
			shift = 3 // 16KB
		}
		if r.Size >= 256<<10 {
			shift += 2 // 8KB..64KB
		}
		window := int64(2048) << shift
		if window > r.Size {
			window = r.Size
		}
		// All of a region's sweeps start at the region base, so windows of
		// different sizes nest: the union of a region's active sweeps is its
		// largest window, not their sum.
		base := int64(0)
		// Distinct sites sharing an anchor walk the same window out of
		// phase (different offsets within the array), as multiple loads in
		// one loop body do.
		phase := (int64(h>>16) & 0x7F) &^ 7 % window
		cur := w.memState[s.MemID]
		w.memState[s.MemID] = (cur + int64(s.Stride)) % window
		return r.Base + base + (cur+phase)%window
	case isa.MemPointer:
		// Pointer chasing revisits a small hot set of clusters most of the
		// time (recently touched nodes), with occasional cold excursions.
		r := p.Regions[s.Region]
		cnt := w.memState[s.MemID]
		w.memState[s.MemID]++
		nClusters := r.Size / clusterBytes
		if nClusters < 1 {
			nClusters = 1
		}
		hot := int64(2)
		if hot > nClusters {
			hot = nClusters
		}
		h := rng.Hash(p.progSeed, uint64(s.MemID), uint64(cnt/clusterReuse))
		var cluster int64
		if float64(h>>48)/65536 < 0.95 {
			cluster = int64(h % uint64(hot))
		} else {
			cluster = int64(h % uint64(nClusters))
		}
		off := int64(rng.Hash(p.progSeed, 0xF00D, uint64(s.MemID), uint64(cnt/3))%clusterBytes) &^ 7
		return r.Base + cluster*clusterBytes + off
	default: // MemRandom
		r := p.Regions[s.Region]
		cnt := w.memState[s.MemID]
		w.memState[s.MemID]++
		h := rng.Hash(p.progSeed, 0xBEEF, uint64(s.MemID), uint64(cnt/2))
		span := uint64(r.Size)
		if float64(h>>40&0xFFFF)/65536 < popularProb && span > popularBytes {
			span = popularBytes
		}
		off := int64(h%span) &^ 7
		return r.Base + off
	}
}

// WrongPathAddr synthesizes a plausible address for a wrong-path dynamic
// instance of a memory instruction. Wrong-path loads and stores have no
// architectural outcome, but they still consume cache bandwidth and can
// pollute the cache. Their addresses come from stale-but-recent register
// values in practice, so they are drawn from a hot prefix of the region the
// instruction touches on the correct path.
func (p *Program) WrongPathAddr(s *isa.Static, salt uint64) int64 {
	r := p.regionOf(s)
	span := uint64(r.Size)
	if span > popularBytes {
		span = popularBytes
	}
	off := int64(rng.Hash(p.progSeed, 0x3AD, uint64(s.MemID), salt)%span) &^ 7
	return r.Base + off
}
