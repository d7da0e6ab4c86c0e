package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/mem"
	"repro/internal/rename"
	"repro/internal/workload"
)

// This file implements warmup checkpointing: SaveState serializes the
// complete machine state at a cycle boundary (between two Step calls) and
// RestoreState installs it onto a freshly built Processor of the same
// configuration. The contract is bit-exactness: a restored machine steps
// through exactly the cycles the original would have, so warmed state is a
// pure function of (config, workload, warmup spec) and can be cached.
//
// In-flight dynamic instructions are serialized as a flat table (Dyns)
// with every cross-reference — ROB entries, latches, queue slots, producer
// maps, scheduled events — stored as an index (DynID) into it. The table
// is collected in a deterministic order: each thread's live ROB window,
// then the decode and rename latches, then any squashed-but-event-
// referenced orphans discovered by scanning the event ring in cycle order.

// DynID indexes SavedState.Dyns; NoDyn marks a nil reference.
type DynID int32

// NoDyn is the DynID of a nil instruction reference.
const NoDyn DynID = -1

// DynSaved is the serialized form of one in-flight dynamic instruction.
// si and prog are not stored: both are re-derived from (thread, pc) on
// restore, since the static image is a pure function of the workload spec.
type DynSaved struct {
	Thread int32
	Seq    int64
	PC     int64

	State     uint8
	WrongPath bool

	Rec  workload.DynRecord
	Addr int64

	DestPhys, OldPhys  rename.PhysReg
	Src1Phys, Src2Phys rename.PhysReg

	PredTaken  bool
	LowConf    bool
	PredNextPC int64
	Mispred    uint8
	CorrectPC  int64
	GhrCP      uint32
	HasGhrCP   bool
	RasCP      branch.RASCheckpoint
	HasRasCP   bool

	FetchCycle    int64
	Age           int64
	EarliestIssue int64
	IssueCycle    int64
	ExecStart     int64
	DoneCycle     int64

	InIQ          bool
	Optimistic    bool
	MemVerified   bool
	Resolved      bool
	PendingEvts   int8
	Gen           int32
	Retried       int32
	OptHeldListed bool
}

// ThreadSaved is the serialized form of one hardware context. ROB holds
// only the live window (rob[robHead:]); the committed prefix is dead state
// and restores with robHead = 0.
type ThreadSaved struct {
	Walker            workload.WalkerState
	FetchPC           int64
	WrongPath         bool
	FetchBlockedUntil int64
	IMissUntil        int64
	NextSeq           int64

	ROB       []DynID
	Stores    []DynID
	CtlFlight []DynID

	ICount       int
	BrCount      int
	MissCount    int
	LowConfCount int

	Committed int64
	WrongSalt uint64
}

// EventSaved is one scheduled event with its absolute target cycle.
// D is NoDyn for events that carry no instruction (evMissDone).
type EventSaved struct {
	Cycle  int64
	Kind   uint8
	D      DynID
	Thread int32
	Gen    int32
}

// SavedState is the complete machine state at a cycle boundary.
type SavedState struct {
	Cycle    int64
	RRBase   int
	CommitRR int
	Stats    Stats

	Dyns    []DynSaved
	Threads []ThreadSaved

	DecodeLatch   []DynID
	RenameLatch   []DynID
	IntQ          []DynID
	FpQ           []DynID
	IssuedPreExec []DynID
	OptHeld       []DynID

	IntProducer []DynID // indexed by physical register; NoDyn when empty
	FpProducer  []DynID

	Events []EventSaved

	Rename rename.State
	Mem    mem.HierarchyState
	Branch *branch.UnitState
}

// SaveState captures the machine's complete state. It must be called at a
// cycle boundary (between Step calls); the capture is read-only. It fails
// when the branch predictor is a custom implementation whose tables cannot
// be serialized — callers treat that as "checkpointing unsupported" and
// run cold.
func (p *Processor) SaveState() (*SavedState, error) {
	brState, ok := branch.SaveState(p.pred)
	if !ok {
		return nil, fmt.Errorf("core: predictor %q does not support checkpointing", p.cfg.Branch.Predictor)
	}

	s := &SavedState{
		Cycle:    p.cycle,
		RRBase:   p.rrBase,
		CommitRR: p.commitRR,
		Stats:    p.Stats(),
		Rename:   p.ren.SaveState(),
		Mem:      p.mem.SaveState(),
		Branch:   brState,
	}

	// Collect the dyn universe in deterministic order. The index map is
	// used for lookups only (never ranged), so iteration-order
	// nondeterminism cannot leak into the saved bytes.
	index := make(map[*dyn]DynID)
	var universe []*dyn
	add := func(d *dyn) DynID {
		if id, seen := index[d]; seen {
			return id
		}
		id := DynID(len(universe))
		index[d] = id
		universe = append(universe, d)
		return id
	}
	lookup := func(d *dyn, where string) (DynID, error) {
		if d == nil {
			return NoDyn, nil
		}
		id, seen := index[d]
		if !seen {
			return NoDyn, fmt.Errorf("core: %s references an instruction outside the live set", where)
		}
		return id, nil
	}

	for _, th := range p.threads {
		for _, d := range th.liveROB() {
			add(d)
		}
	}
	for _, d := range p.decodeLatch {
		add(d)
	}
	for _, d := range p.renameLatch {
		add(d)
	}

	// Scan the event ring in cycle order. Live events occupy cycles
	// (cycle, cycle+mask]; the current cycle's bucket was drained at the
	// top of this Step and nothing can schedule into it again.
	if n := len(p.events.buckets[p.cycle&p.events.mask]); n != 0 {
		return nil, fmt.Errorf("core: %d events stranded in the current cycle's bucket", n)
	}
	for off := int64(1); off <= p.events.mask; off++ {
		cycle := p.cycle + off
		for _, ev := range p.events.buckets[cycle&p.events.mask] {
			id := NoDyn
			if ev.d != nil {
				// Events may reference squashed instructions awaiting
				// release; they join the universe here.
				id = add(ev.d)
			}
			s.Events = append(s.Events, EventSaved{
				Cycle: cycle, Kind: uint8(ev.kind), D: id, Thread: ev.thread, Gen: ev.gen,
			})
		}
	}

	s.Dyns = make([]DynSaved, len(universe))
	for i, d := range universe {
		s.Dyns[i] = DynSaved{
			Thread: d.thread, Seq: d.seq, PC: d.pc,
			State: uint8(d.state), WrongPath: d.wrongPath,
			Rec: d.rec, Addr: d.addr,
			DestPhys: d.destPhys, OldPhys: d.oldPhys,
			Src1Phys: d.src1Phys, Src2Phys: d.src2Phys,
			PredTaken: d.predTaken, LowConf: d.lowConf, PredNextPC: d.predNextPC,
			Mispred: uint8(d.mispred), CorrectPC: d.correctPC,
			GhrCP: d.ghrCP, HasGhrCP: d.hasGhrCP,
			RasCP: d.rasCP, HasRasCP: d.hasRasCP,
			FetchCycle: d.fetchCycle, Age: d.age, EarliestIssue: d.earliestIssue,
			IssueCycle: d.issueCycle, ExecStart: d.execStart, DoneCycle: d.doneCycle,
			InIQ: d.inIQ, Optimistic: d.optimistic, MemVerified: d.memVerified,
			Resolved: d.resolved, PendingEvts: d.pendingEvts, Gen: d.gen,
			Retried: d.retried, OptHeldListed: d.optHeldListed,
		}
	}

	ids := func(src []*dyn, where string) ([]DynID, error) {
		out := make([]DynID, len(src))
		for i, d := range src {
			id, err := lookup(d, where)
			if err != nil {
				return nil, err
			}
			out[i] = id
		}
		return out, nil
	}

	var err error
	for _, th := range p.threads {
		ts := ThreadSaved{
			Walker:            th.feed.State(),
			FetchPC:           th.fetchPC,
			WrongPath:         th.wrongPath,
			FetchBlockedUntil: th.fetchBlockedUntil,
			IMissUntil:        th.imissUntil,
			NextSeq:           th.nextSeq,
			ICount:            th.icount,
			BrCount:           th.brcount,
			MissCount:         th.misscount,
			LowConfCount:      th.lowConfCount,
			Committed:         th.committed,
			WrongSalt:         th.wrongSalt,
		}
		if ts.ROB, err = ids(th.liveROB(), "ROB"); err != nil {
			return nil, err
		}
		if ts.Stores, err = ids(th.stores, "store list"); err != nil {
			return nil, err
		}
		if ts.CtlFlight, err = ids(th.ctlFlight, "control list"); err != nil {
			return nil, err
		}
		s.Threads = append(s.Threads, ts)
	}

	if s.DecodeLatch, err = ids(p.decodeLatch, "decode latch"); err != nil {
		return nil, err
	}
	if s.RenameLatch, err = ids(p.renameLatch, "rename latch"); err != nil {
		return nil, err
	}
	if s.IntQ, err = ids(p.intQ.All(), "int IQ"); err != nil {
		return nil, err
	}
	if s.FpQ, err = ids(p.fpQ.All(), "fp IQ"); err != nil {
		return nil, err
	}
	if s.IssuedPreExec, err = ids(p.issuedPreExec, "issuedPreExec"); err != nil {
		return nil, err
	}

	// optHeld may hold stale pointers to recycled instructions (the
	// membership bit, not list presence, is the source of truth). Entries
	// that map into the universe are kept in order — duplicates included,
	// since the release walk tolerates them — and the rest dropped: a
	// stale entry's only behavior is to be skipped.
	for _, d := range p.optHeld {
		if id, seen := index[d]; seen {
			s.OptHeld = append(s.OptHeld, id)
		}
	}

	if s.IntProducer, err = ids(p.intProducer, "int producer map"); err != nil {
		return nil, err
	}
	if s.FpProducer, err = ids(p.fpProducer, "fp producer map"); err != nil {
		return nil, err
	}

	return s, nil
}

// RestoreState installs a saved state onto a freshly built Processor of
// the same configuration. The processor must not have stepped. Errors
// leave the processor in an undefined state; callers discard it and run
// cold.
func (p *Processor) RestoreState(s *SavedState) error {
	if p.cycle != 0 || p.stats.Cycles != 0 || p.stats.Committed != 0 {
		return fmt.Errorf("core: state restore requires a freshly built processor")
	}
	if len(s.Threads) != len(p.threads) {
		return fmt.Errorf("core: state has %d threads, processor has %d", len(s.Threads), len(p.threads))
	}
	if len(s.IntProducer) != len(p.intProducer) || len(s.FpProducer) != len(p.fpProducer) {
		return fmt.Errorf("core: state producer maps sized %d/%d, processor has %d",
			len(s.IntProducer), len(s.FpProducer), len(p.intProducer))
	}
	if len(s.Stats.CommittedByThread) != len(p.threads) ||
		len(s.Stats.LowConfFetched) != len(p.threads) ||
		len(s.Stats.MispredictsByThread) != len(p.threads) {
		return fmt.Errorf("core: state per-thread counters do not match thread count")
	}
	if s.Branch == nil {
		return fmt.Errorf("core: state is missing predictor tables")
	}

	// Cross-check event bookkeeping before touching anything: each
	// instruction's pending-event count must equal the events that
	// reference it, or the restored machine would leak or double-release.
	refs := make([]int8, len(s.Dyns))
	for _, ev := range s.Events {
		if ev.D != NoDyn {
			if int(ev.D) >= len(s.Dyns) || ev.D < 0 {
				return fmt.Errorf("core: event references instruction %d of %d", ev.D, len(s.Dyns))
			}
			refs[ev.D]++
		}
		if ev.Cycle <= s.Cycle {
			return fmt.Errorf("core: event scheduled at cycle %d not after snapshot cycle %d", ev.Cycle, s.Cycle)
		}
	}
	for i := range s.Dyns {
		if refs[i] != s.Dyns[i].PendingEvts {
			return fmt.Errorf("core: instruction %d has %d pending events but %d references", i, s.Dyns[i].PendingEvts, refs[i])
		}
	}

	if err := p.ren.RestoreState(s.Rename); err != nil {
		return err
	}
	if err := p.mem.RestoreState(s.Mem); err != nil {
		return err
	}
	if err := branch.RestoreState(p.pred, s.Branch); err != nil {
		return err
	}

	// Rebuild the dyn table. si and prog are re-derived from the thread's
	// program, which the restore precondition (same config, same workload)
	// guarantees matches the saved image.
	universe := make([]*dyn, len(s.Dyns))
	for i := range s.Dyns {
		ds := &s.Dyns[i]
		if int(ds.Thread) >= len(p.threads) || ds.Thread < 0 {
			return fmt.Errorf("core: instruction %d on thread %d of %d", i, ds.Thread, len(p.threads))
		}
		th := p.threads[ds.Thread]
		d := p.pool.get()
		d.thread = ds.Thread
		d.seq = ds.Seq
		d.pc = ds.PC
		d.prog = th.prog
		d.si = th.prog.At(ds.PC)
		d.state = dynState(ds.State)
		d.wrongPath = ds.WrongPath
		d.rec = ds.Rec
		d.addr = ds.Addr
		d.destPhys, d.oldPhys = ds.DestPhys, ds.OldPhys
		d.src1Phys, d.src2Phys = ds.Src1Phys, ds.Src2Phys
		d.predTaken = ds.PredTaken
		d.lowConf = ds.LowConf
		d.predNextPC = ds.PredNextPC
		d.mispred = mispredKind(ds.Mispred)
		d.correctPC = ds.CorrectPC
		d.ghrCP, d.hasGhrCP = ds.GhrCP, ds.HasGhrCP
		d.rasCP, d.hasRasCP = ds.RasCP, ds.HasRasCP
		d.fetchCycle = ds.FetchCycle
		d.age = ds.Age
		d.earliestIssue = ds.EarliestIssue
		d.issueCycle = ds.IssueCycle
		d.execStart = ds.ExecStart
		d.doneCycle = ds.DoneCycle
		d.inIQ = ds.InIQ
		d.optimistic = ds.Optimistic
		d.memVerified = ds.MemVerified
		d.resolved = ds.Resolved
		d.pendingEvts = ds.PendingEvts
		d.gen = ds.Gen
		d.retried = ds.Retried
		d.optHeldListed = ds.OptHeldListed
		universe[i] = d
	}

	at := func(id DynID, where string) (*dyn, error) {
		if id == NoDyn {
			return nil, nil
		}
		if id < 0 || int(id) >= len(universe) {
			return nil, fmt.Errorf("core: %s references instruction %d of %d", where, id, len(universe))
		}
		return universe[id], nil
	}
	ptrs := func(ids []DynID, where string) ([]*dyn, error) {
		out := make([]*dyn, 0, len(ids))
		for _, id := range ids {
			d, err := at(id, where)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}

	var err error
	for t, ts := range s.Threads {
		th := p.threads[t]
		if err = th.feed.SetState(ts.Walker); err != nil {
			return err
		}
		th.fetchPC = ts.FetchPC
		th.wrongPath = ts.WrongPath
		th.fetchBlockedUntil = ts.FetchBlockedUntil
		th.imissUntil = ts.IMissUntil
		th.nextSeq = ts.NextSeq
		if th.rob, err = ptrs(ts.ROB, "ROB"); err != nil {
			return err
		}
		th.robHead = 0
		if th.stores, err = ptrs(ts.Stores, "store list"); err != nil {
			return err
		}
		if th.ctlFlight, err = ptrs(ts.CtlFlight, "control list"); err != nil {
			return err
		}
		th.icount = ts.ICount
		th.brcount = ts.BrCount
		th.misscount = ts.MissCount
		th.lowConfCount = ts.LowConfCount
		th.committed = ts.Committed
		th.wrongSalt = ts.WrongSalt
	}

	if p.decodeLatch, err = ptrs(s.DecodeLatch, "decode latch"); err != nil {
		return err
	}
	if p.renameLatch, err = ptrs(s.RenameLatch, "rename latch"); err != nil {
		return err
	}
	for _, id := range s.IntQ {
		d, derr := at(id, "int IQ")
		if derr != nil {
			return derr
		}
		if !p.intQ.Push(d) {
			return fmt.Errorf("core: int IQ overflow on restore")
		}
	}
	for _, id := range s.FpQ {
		d, derr := at(id, "fp IQ")
		if derr != nil {
			return derr
		}
		if !p.fpQ.Push(d) {
			return fmt.Errorf("core: fp IQ overflow on restore")
		}
	}
	if p.issuedPreExec, err = ptrs(s.IssuedPreExec, "issuedPreExec"); err != nil {
		return err
	}
	if p.optHeld, err = ptrs(s.OptHeld, "optHeld"); err != nil {
		return err
	}
	for i, id := range s.IntProducer {
		if p.intProducer[i], err = at(id, "int producer map"); err != nil {
			return err
		}
	}
	for i, id := range s.FpProducer {
		if p.fpProducer[i], err = at(id, "fp producer map"); err != nil {
			return err
		}
	}

	// Install events directly into the ring buckets, preserving the saved
	// generation stamps and per-bucket order. schedule() is bypassed: it
	// would stamp the instruction's current generation (already correct,
	// but semantically the saved stamp is authoritative) and double-count
	// pendingEvts, which was restored with the instruction.
	p.events.base = s.Cycle
	for _, ev := range s.Events {
		d, derr := at(ev.D, "event")
		if derr != nil {
			return derr
		}
		for ev.Cycle-p.events.base > p.events.mask {
			p.events.grow()
		}
		idx := ev.Cycle & p.events.mask
		p.events.buckets[idx] = append(p.events.buckets[idx],
			event{kind: evKind(ev.Kind), d: d, thread: ev.Thread, gen: ev.Gen})
	}

	p.cycle = s.Cycle
	p.rrBase = s.RRBase
	p.commitRR = s.CommitRR
	st := s.Stats
	st.CommittedByThread = append([]int64(nil), st.CommittedByThread...)
	st.LowConfFetched = append([]int64(nil), st.LowConfFetched...)
	st.MispredictsByThread = append([]int64(nil), st.MispredictsByThread...)
	p.stats = st
	return nil
}

// SetCursors replaces each thread's instruction feed with a cursor over
// a (typically shared, pre-decoded) trace. It is valid only on a freshly
// built processor, and each cursor must replay the identical program
// instance the processor was built with.
func (p *Processor) SetCursors(cursors []*workload.Cursor) error {
	if p.cycle != 0 || p.stats.Cycles != 0 {
		return fmt.Errorf("core: cursors can only be installed before stepping")
	}
	if len(cursors) != len(p.threads) {
		return fmt.Errorf("core: %d cursors for %d threads", len(cursors), len(p.threads))
	}
	for t, c := range cursors {
		if c == nil {
			return fmt.Errorf("core: nil cursor for thread %d", t)
		}
		if c.Program() != p.threads[t].prog {
			return fmt.Errorf("core: thread %d cursor replays a different program instance", t)
		}
	}
	for t, c := range cursors {
		p.threads[t].feed = c
	}
	return nil
}
