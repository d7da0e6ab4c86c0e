package workload

import (
	"slices"

	"repro/internal/state"
)

// Trace is an immutable pre-decoded prefix of one program's architectural
// execution: the first n DynRecords a fresh Walker would produce, plus the
// walker state at the end of that prefix. A program is a pure function of
// (profile, seed, asid), so a Trace belongs to one hardware context's
// program and is shared read-only across every configuration, machine width
// and goroutine that runs it — replaying records from a flat slice replaces
// the per-run walker's control/address resolution in the fetch hot path.
type Trace struct {
	prog *Program
	recs []traceRec
	end  *Walker // the walker just past recs; frozen, cloned for tail spill
}

// traceRec is one stored record: what the walker resolved and a replay
// cannot re-derive from the static code. The correct path never leaves the
// code image (every procedure ends in a return), so a record's PC is
// Program.PCOf of its own static index and its NextPC the PC of the record
// after it — the cursor rebuilds both instead of storing 16 more bytes.
// Three uint32s keep the record at 12 bytes with no alignment padding.
type traceRec struct {
	idxTaken       uint32 // static index << 1 | taken
	addrLo, addrHi uint32 // effective address for loads/stores, else 0
}

// traceRecBytes is the in-memory size of one traceRec.
const traceRecBytes = 12

// BuildTrace decodes the first n architectural instructions of p.
func BuildTrace(p *Program, n int64) *Trace {
	if n < 0 {
		n = 0
	}
	w := NewWalker(p)
	recs := make([]traceRec, n)
	for i := range recs {
		r := w.Next()
		idxTaken := uint32(r.Idx) << 1
		if r.Taken {
			idxTaken |= 1
		}
		recs[i] = traceRec{idxTaken: idxTaken, addrLo: uint32(r.Addr), addrHi: uint32(r.Addr >> 32)}
	}
	return &Trace{prog: p, recs: recs, end: w}
}

// Program returns the traced program.
func (t *Trace) Program() *Program { return t.prog }

// Len returns the number of pre-decoded records.
func (t *Trace) Len() int { return len(t.recs) }

// Bytes returns the approximate memory footprint of the trace records.
func (t *Trace) Bytes() int64 { return int64(len(t.recs)) * traceRecBytes }

// NewCursor returns a fresh replay position at the start of the trace.
func (t *Trace) NewCursor() *Cursor { return &Cursor{t: t} }

// Cursor is the instruction feed the core consumes: it replays a Trace and
// then keeps walking. Within the pre-decoded prefix Next is an indexed
// read — no hashing, no mutation beyond the index, and no allocation — so
// any number of cursors share one Trace concurrently. A run that outlives
// the prefix spills to a private tail walker seeded from the trace's end
// state and continues bit-identically; over an empty trace that happens at
// record 0, which is how a machine built without a trace walks live.
type Cursor struct {
	t    *Trace
	idx  int64   // next record to replay; valid while tail == nil
	tail *Walker // non-nil once the cursor has run past the prefix
}

// Next produces the next architectural instruction record and advances.
func (c *Cursor) Next() DynRecord {
	if c.tail == nil {
		if recs := c.t.recs; c.idx < int64(len(recs)) {
			r := recs[c.idx]
			c.idx++
			idx := int(r.idxTaken >> 1)
			return DynRecord{
				Idx:    int32(idx),
				PC:     c.t.prog.PCOf(idx),
				NextPC: c.PC(),
				Addr:   int64(r.addrHi)<<32 | int64(r.addrLo),
				Taken:  r.idxTaken&1 != 0,
			}
		}
		c.spill()
	}
	return c.tail.Next()
}

// spill builds the private tail walker for runs that outlive the prefix.
// Traces are sized with slack over the run budget, so this is a cold path
// taken at most once per cursor.
func (c *Cursor) spill() { c.tail = c.t.end.clone() }

// clone returns an independent copy of w at the same position.
func (w *Walker) clone() *Walker {
	cp := *w
	cp.callStack = slices.Clone(w.callStack)
	cp.loopRem = slices.Clone(w.loopRem)
	cp.entrySeq = slices.Clone(w.entrySeq)
	cp.memState = slices.Clone(w.memState)
	return &cp
}

// Program returns the program being replayed.
func (c *Cursor) Program() *Program { return c.t.prog }

// PC returns the PC of the next architectural instruction.
func (c *Cursor) PC() int64 {
	switch {
	case c.tail != nil:
		return c.tail.pc
	case c.idx < int64(len(c.t.recs)):
		return c.t.prog.PCOf(int(c.t.recs[c.idx].idxTaken >> 1))
	}
	return c.t.end.pc
}

// State walks the cursor's position as a Walker's, so a checkpoint of a
// replayed run restores onto a live walker (or another cursor) identically.
// Mid-prefix the cursor holds no walker state, so writing reconstructs it by
// replaying a fresh walker to the cursor's index — a cold path paid once
// per save. Reading resumes indexed replay for positions within the
// pre-decoded prefix — the PC must agree with the trace there, which
// catches mismatched (program, seed) pairings — and a private tail walker
// past it. Checkpoint save and restore only: never on the cycle loop.
func (c *Cursor) State(sc *state.Codec) {
	w := c.tail
	if w == nil || !sc.Writing() {
		w = NewWalker(c.t.prog)
		for i := int64(0); sc.Writing() && i < c.idx; i++ {
			w.Next()
		}
	}
	if w.State(sc); sc.Writing() || sc.Err() != nil {
		return
	}
	if w.seq > uint64(len(c.t.recs)) {
		c.tail = w
		return
	}
	if c.idx, c.tail = int64(w.seq), nil; c.PC() != w.pc {
		sc.Failf("workload: state pc %#x disagrees with trace record %d pc %#x", w.pc, w.seq, c.PC())
	}
}
