package workload

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/state"
)

// Trace is an immutable pre-decoded prefix of one program's architectural
// execution: the first n DynRecords a fresh Walker would produce, plus the
// walker state at the end of that prefix. A program is a pure function of
// (profile, seed, asid), so a Trace belongs to one hardware context's
// program and is shared read-only across every configuration, machine width
// and goroutine that runs it — replaying it replaces the per-run walker's
// control/address resolution in the fetch hot path.
//
// A trace stores only what the walker drew and the code cannot re-derive,
// in record order:
//
//   - a conditional branch's direction: one bit, packed eight to a byte —
//     the first direction of a group reserves the next byte of the stream
//     and the seven after it fill that byte;
//   - an indirect jump's table slot: a uvarint;
//   - a load's or store's effective address: a uvarint, its offset above
//     the base of the region it addresses (Program.regionOf).
//
// Everything else follows from the static code, which a cursor walks the
// way the walker does (Program.transfer): the first record is at the
// program's entry, a non-control instruction and an untaken branch fall
// through, direct jumps and calls go to their targets, and returns pop the
// cursor's own return stack. The correct path never leaves the code image
// (every procedure ends in a return), so a PC indexes the code directly.
// The stream averages under a byte a record; the program the trace pins
// is most of its size.
type Trace struct {
	prog  *Program
	n     int64       // records in the prefix
	outs  []byte      // the prefix's outcome stream
	seeks []seekPoint // where a cursor stands at every seekEvery-th record
	end   *Walker     // the walker just past the prefix; frozen, cloned for tail spill
}

// seekEvery spaces a trace's seek points, in records: a restore replays at
// most this many records from the one before its position, not the whole
// prefix, for a few dozen bytes per point.
const seekEvery = 4096

// seekPoint is a cursor's position at a multiple of seekEvery.
type seekPoint struct {
	pc    int64
	pos   int     // next unread byte of the outcome stream
	group int     // the byte holding the current direction group
	nbits uint8   // directions of that group still unread
	stack []int64 // return addresses
}

// BuildTrace decodes the first n architectural instructions of p.
func BuildTrace(p *Program, n int64) *Trace {
	n = max(n, 0)
	w := NewWalker(p)
	var e outcomeWriter
	var seeks []seekPoint
	for i := int64(0); i < n; i++ {
		if i%seekEvery == 0 {
			seeks = append(seeks, seekPoint{pc: w.pc, pos: len(e.buf), group: e.group, nbits: e.free, stack: slices.Clone(w.callStack)})
		}
		r := w.Next()
		switch s := &p.Code[r.Idx]; s.Class {
		case isa.ClassLoad, isa.ClassStore:
			e.uvarint(uint64(r.Addr - p.regionOf(s).Base))
		case isa.ClassBranch:
			e.bit(r.Taken)
		case isa.ClassJumpInd:
			e.uvarint(uint64(max(slices.Index(p.jumpTables[s.BranchID], r.NextPC), 0)))
		}
	}
	// The stream and the seek points grew by appending: pin exactly their
	// lengths.
	return &Trace{prog: p, n: n, outs: slices.Clone(e.buf), seeks: slices.Clone(seeks), end: w}
}

// outcomeWriter appends one trace's outcome stream.
type outcomeWriter struct {
	buf   []byte
	group int   // index in buf of the byte collecting directions
	free  uint8 // direction bits left in it
}

func (e *outcomeWriter) bit(taken bool) {
	if e.free == 0 {
		e.group, e.free = len(e.buf), 8
		e.buf = append(e.buf, 0)
	}
	if taken {
		e.buf[e.group] |= 1 << (8 - e.free)
	}
	e.free--
}

func (e *outcomeWriter) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Program returns the traced program.
func (t *Trace) Program() *Program { return t.prog }

// Len returns the number of pre-decoded records.
func (t *Trace) Len() int { return int(t.n) }

// Bytes approximates the memory the trace pins: its outcome stream and
// seek points, its frozen end walker, and the program both belong to.
func (t *Trace) Bytes() int64 {
	n := int64(unsafe.Sizeof(*t)) + int64(cap(t.outs)) + int64(cap(t.seeks))*int64(unsafe.Sizeof(seekPoint{}))
	for _, sp := range t.seeks {
		n += int64(cap(sp.stack)) * 8
	}
	return n + t.end.bytes() + t.prog.Bytes()
}

// bytes approximates the memory a walker holds beside its program.
func (w *Walker) bytes() int64 {
	return int64(unsafe.Sizeof(*w)) + int64(cap(w.callStack))*8 +
		int64(cap(w.loopRem))*4 + int64(cap(w.entrySeq))*4 + int64(cap(w.memState))*8
}

// NewCursor returns a fresh replay position at the start of the trace.
func (t *Trace) NewCursor() *Cursor {
	return &Cursor{t: t, pc: t.prog.Entry, stack: make([]int64, 0, maxCallDepth+8)}
}

// Cursor is the instruction feed the core consumes: it replays a Trace and
// then keeps walking. Within the pre-decoded prefix Next reads the trace's
// outcomes in order and follows the static code — no hashing, no write to
// the trace, and no allocation — so any number of cursors share one Trace
// concurrently. A run that outlives the prefix spills to a private tail
// walker seeded from the trace's end state and continues bit-identically;
// over a zero-record trace that happens at record 0, so a machine that
// walks its programs live is one built from zero-record traces.
type Cursor struct {
	t     *Trace
	seq   int64   // records replayed; valid while tail == nil
	pc    int64   // PC of the next record; valid while tail == nil
	pos   int     // next unread byte of t.outs
	bits  uint8   // unread directions of the current group, next in bit 0
	nbits uint8   // how many directions bits holds
	stack []int64 // return addresses, as the walker's call stack holds them
	tail  *Walker // non-nil once the cursor has run past the prefix
}

// Next produces the next architectural instruction record and advances.
// The record is built in one place and returned once: assembling it field
// by field through a pointer, or returning it through a second call, costs
// a store-forwarding stall a record, about doubling the replay time.
func (c *Cursor) Next() DynRecord {
	if c.tail != nil || c.seq == c.t.n {
		if c.tail == nil {
			c.spill()
		}
		return c.tail.Next()
	}
	p, pc := c.t.prog, c.pc
	idx := (pc - p.Base) / isa.InstrBytes
	s := &p.Code[idx]
	next, taken, addr := pc+isa.InstrBytes, false, int64(0)
	switch s.Class {
	case isa.ClassLoad, isa.ClassStore:
		addr = p.regionOf(s).Base + int64(c.uvarint())
	case isa.ClassBranch:
		next, taken = p.transfer(s, pc, &c.stack, c.bit(), 0)
	case isa.ClassJumpInd:
		next, taken = p.transfer(s, pc, &c.stack, true, c.uvarint())
	case isa.ClassJump, isa.ClassCall, isa.ClassReturn:
		next, taken = p.transfer(s, pc, &c.stack, true, 0)
	}
	c.pc = next
	c.seq++
	return DynRecord{Idx: int32(idx), PC: pc, NextPC: next, Addr: addr, Taken: taken}
}

// bit reads the next branch direction.
func (c *Cursor) bit() bool {
	if c.nbits == 0 {
		c.bits, c.nbits = c.t.outs[c.pos], 8
		c.pos++
	}
	taken := c.bits&1 != 0
	c.bits >>= 1
	c.nbits--
	return taken
}

// uvarint reads the next table slot or address offset.
func (c *Cursor) uvarint() uint64 {
	if b := c.t.outs[c.pos]; b < 0x80 {
		c.pos++
		return uint64(b)
	}
	v, n := binary.Uvarint(c.t.outs[c.pos:])
	c.pos += n
	return v
}

// spill builds the private tail walker for runs that outlive the prefix.
// Traces are sized with slack over the run budget, so this is a cold path
// taken at most once per cursor.
func (c *Cursor) spill() { c.tail = c.t.end.clone() }

// clone returns an independent copy of w at the same position. The call
// stack gets its full depth up front, as NewWalker's does: grown one new
// depth at a time, a walker still allocates long after warmup.
func (w *Walker) clone() *Walker {
	cp := *w
	cp.callStack = append(make([]int64, 0, maxCallDepth+8), w.callStack...)
	cp.loopRem = slices.Clone(w.loopRem)
	cp.entrySeq = slices.Clone(w.entrySeq)
	cp.memState = slices.Clone(w.memState)
	return &cp
}

// PC returns the PC of the next architectural instruction.
func (c *Cursor) PC() int64 {
	if c.tail != nil {
		return c.tail.pc
	}
	return c.pc
}

// State walks the cursor's position as a Walker's, so a checkpoint of a
// replayed run restores onto a live walker (or another cursor) identically.
// Mid-prefix the cursor holds no walker state, so writing reconstructs it by
// replaying a fresh walker to the cursor's position — a cold path paid once
// per save. Reading a position within the pre-decoded prefix replays the
// trace from the seek point before it — the PC and return stack must agree
// with the walker's, which catches mismatched (program, seed) pairings —
// and a position past it installs a private tail walker. Checkpoint save
// and restore only: never on the cycle loop.
func (c *Cursor) State(sc *state.Codec) {
	w := c.tail
	if w == nil || !sc.Writing() {
		w = NewWalker(c.t.prog)
		for i := int64(0); sc.Writing() && i < c.seq; i++ {
			w.Next()
		}
	}
	if w.State(sc); sc.Writing() || sc.Err() != nil {
		return
	}
	if w.seq > uint64(c.t.n) {
		c.tail = w
		return
	}
	*c = *c.t.NewCursor()
	if k := min(int(w.seq/seekEvery), len(c.t.seeks)-1); k >= 0 {
		sp := &c.t.seeks[k]
		c.seq, c.pc, c.pos, c.nbits = int64(k)*seekEvery, sp.pc, sp.pos, sp.nbits
		if sp.nbits > 0 {
			c.bits = c.t.outs[sp.group] >> (8 - sp.nbits)
		}
		c.stack = append(c.stack, sp.stack...)
	}
	for c.seq < int64(w.seq) {
		c.Next()
	}
	if c.pc != w.pc || !slices.Equal(c.stack, w.callStack) {
		sc.Failf("workload: state pc %#x (%d returns pending) disagrees with trace record %d pc %#x (%d returns pending)",
			w.pc, len(w.callStack), w.seq, c.pc, len(c.stack))
	}
}
