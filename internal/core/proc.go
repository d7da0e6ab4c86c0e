package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/iq"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/rename"
	"repro/internal/workload"
)

// threadState is one hardware context.
type threadState struct {
	id   int
	prog *workload.Program
	// feed is the thread's correct-path instruction stream: a cursor over
	// the thread's trace that continues on a private walker once the trace
	// runs out. Every machine is built from traces, and one that walks live
	// has zero-record ones, so replay and live walking are one path that
	// differs only in how long the pre-decoded prefix is.
	feed *workload.Cursor

	fetchPC           int64
	wrongPath         bool  // fetch is currently down a wrong path
	fetchBlockedUntil int64 // misfetch bubbles / redirect bubbles
	imissUntil        int64 // in-flight I-cache miss completion

	nextSeq int64
	// rob[robHead:] holds the renamed, in-flight instructions in fetch
	// order. Commit advances robHead instead of shifting the slice (an
	// O(ROB) memmove per retired instruction otherwise); the dead prefix
	// is compacted away once it outgrows the live tail, so the backing
	// array stays bounded and is reused forever.
	rob       []*dyn
	robHead   int
	stores    []*dyn // renamed stores awaiting execution (disambiguation)
	ctlFlight []*dyn // renamed, unresolved control instructions

	// fb is the thread's entry in Processor.feedback: the fetch-policy
	// counters of Section 5.2, which the stages keep live. ICount and
	// BrCount move only through occupy; MissCount counts outstanding
	// D-cache misses; LowConf counts in-flight low-confidence conditional
	// branches (set at fetch from the predictor's confidence estimate,
	// cleared at resolve or squash), which also drive the
	// variable-fetch-rate throttle.
	fb *policy.ThreadFeedback

	wrongSalt uint64 // wrong-path address diversifier
}

// Processor is one simulated machine.
type Processor struct {
	cfg   Config
	cycle int64

	// The fetch and issue policies, resolved from their registered names
	// once at construction; the per-cycle stages read them directly. The
	// fetch policy's Needs say whether the cycle loop computes IQPosn.
	fetchPol policy.Fetch
	issuePol policy.Issue

	// pred is the branch predictor built from cfg.Branch.Predictor's
	// registered name at construction. oracle short-circuits it entirely:
	// perfect prediction (the "perfect" predictor) never consults or trains
	// the unit.
	pred   *branch.Unit
	oracle bool

	mem *mem.Hierarchy
	ren *rename.Renamer

	intQ *iq.Queue[*dyn]
	fpQ  *iq.Queue[*dyn]

	threads []*threadState
	// feedback is what the fetch policy compares, one entry per thread,
	// each kept by its thread's stages through threadState.fb. IQPosn
	// holds noQueuePosn unless the policy declares it (buildFeedback).
	feedback []policy.ThreadFeedback

	decodeLatch []*dyn // fetched this or an earlier cycle, awaiting decode
	renameLatch []*dyn // decoded, awaiting rename/queue insert

	events ring
	pool   pool
	stats  Stats

	rrBase   int // round-robin fetch priority rotation
	commitRR int // round-robin commit fairness

	// optHeld tracks optimistically issued instructions still holding
	// their IQ slots, so releaseDependents walks a short list instead of
	// both queues. dyn.optHeldListed is the membership bit; entries whose
	// bit is clear are lazily dropped.
	optHeld []*dyn

	// Scratch buffers reused across cycles: every per-cycle append site
	// reuses one of these backing arrays, so the steady-state loop never
	// allocates.
	orderBuf  []int
	pickBuf   []*threadState // this cycle's fetch picks; len FetchThreads
	candBuf   []candidate
	idxBuf    []int
	fpIdxBuf  []int
	squashBuf []*dyn

	// audit is a test-only hook (set from _test.go, nil otherwise). When
	// non-nil, the places that skip work on derived grounds also do it the
	// long way, and the hook hears of any instruction they got wrong: an
	// entry the issue stage skips as asleep is put to ready regardless, a
	// reordering candidate's Speculative flag is checked against a walk of
	// its thread's live ROB, and squashDependents also searches every
	// in-flight instruction for a consumer that optHeld does not list.
	// The registers' producer facts (rename.File's AtRisk and Instant) have
	// no skip to shadow; the tests hold them to each live producer between
	// steps.
	audit func(d *dyn, wrong string)

	// CommitHook, when non-nil, observes every committed instruction in
	// per-thread program order (used by tests and tracing tools).
	CommitHook func(thread int, pc int64)
}

// New builds a processor for cfg, one hardware context per trace: each
// context fetches from its own cursor over its trace's program, so traces
// may be shared read-only across any number of processors.
// len(traces) must equal cfg.Threads.
func New(cfg Config, traces []*workload.Trace) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) != cfg.Threads {
		return nil, fmt.Errorf("core: %d traces for %d threads", len(traces), cfg.Threads)
	}
	pred, err := branch.New(cfg.Branch, cfg.Threads)
	if err != nil {
		return nil, err
	}
	hier, err := mem.New(cfg.Mem)
	if err != nil {
		return nil, err
	}
	ren, err := rename.New(cfg.Rename, cfg.Threads)
	if err != nil {
		return nil, err
	}
	fetchPol, err := cfg.FetchPolicy.Resolve()
	if err != nil {
		return nil, err
	}
	issuePol, err := cfg.IssuePolicy.Resolve()
	if err != nil {
		return nil, err
	}
	capScale := 1
	if cfg.BigQ {
		capScale = 2
	}
	p := &Processor{
		cfg:      cfg,
		fetchPol: fetchPol,
		issuePol: issuePol,
		pred:     pred,
		mem:      hier,
		ren:      ren,
		intQ:     iq.New[*dyn](cfg.IQSize*capScale, cfg.IQSize),
		fpQ:      iq.New[*dyn](cfg.IQSize*capScale, cfg.IQSize),
		feedback: make([]policy.ThreadFeedback, cfg.Threads),
		orderBuf: make([]int, 0, cfg.Threads),
		pickBuf:  make([]*threadState, cfg.FetchThreads),
	}
	p.oracle = cfg.Branch.Oracle()
	p.events.init(cfg.eventHorizon())
	p.stats.CommittedByThread = make([]int64, cfg.Threads)
	p.stats.LowConfFetched = make([]int64, cfg.Threads)
	p.stats.MispredictsByThread = make([]int64, cfg.Threads)
	// A thread's in-flight instructions each hold a queue slot or, once
	// issued, a renaming register, unless they have no destination; and
	// compactROB lets the ROB's dead prefix grow to its live tail before
	// sliding it down. So the ROB starts at twice what the queues and the
	// registers can hold, up to maxROBStart (sec7's unlimited registers),
	// and grows past that only behind destination-less instructions.
	robCap := min(2*(2*cfg.IQSize*capScale+2*cfg.Rename.ExcessRegs), maxROBStart)
	for t, tr := range traces {
		prog := tr.Program()
		// The store and control lists start at a queue's worth: grown one
		// high-water mark at a time, a thread whose loads stall behind
		// DTLB walks still reaches new marks long after warmup.
		p.threads = append(p.threads, &threadState{
			id:        t,
			feed:      tr.NewCursor(),
			prog:      prog,
			fetchPC:   prog.Entry,
			rob:       make([]*dyn, 0, robCap),
			stores:    make([]*dyn, 0, cfg.IQSize),
			ctlFlight: make([]*dyn, 0, cfg.IQSize),
			fb:        &p.feedback[t],
		})
		p.feedback[t].IQPosn = noQueuePosn
	}
	return p, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, traces []*workload.Trace) *Processor {
	p, err := New(cfg, traces)
	if err != nil {
		panic(err)
	}
	return p
}

// Stats returns a snapshot of the statistics counters.
func (p *Processor) Stats() Stats {
	s := p.stats
	s.CommittedByThread = append([]int64(nil), p.stats.CommittedByThread...)
	s.LowConfFetched = append([]int64(nil), p.stats.LowConfFetched...)
	s.MispredictsByThread = append([]int64(nil), p.stats.MispredictsByThread...)
	return s
}

// Mem exposes the memory hierarchy's statistics.
func (p *Processor) Mem() *mem.Hierarchy { return p.mem }

// Committed returns the committed-instruction count without snapshotting
// the full counter set; run loops poll it every cycle.
func (p *Processor) Committed() int64 { return p.stats.Committed }

// ResetStats zeroes the statistics counters (memory-hierarchy counters
// included) without disturbing machine state; use it to exclude warmup.
func (p *Processor) ResetStats() {
	perThread := p.stats.CommittedByThread
	lowConf := p.stats.LowConfFetched
	mispred := p.stats.MispredictsByThread
	for i := range perThread {
		perThread[i] = 0
		lowConf[i] = 0
		mispred[i] = 0
	}
	p.stats = Stats{CommittedByThread: perThread, LowConfFetched: lowConf, MispredictsByThread: mispred}
	p.mem.ResetStats()
}

// Step advances the machine one cycle.
func (p *Processor) Step() {
	p.cycle++
	p.processEvents()
	p.commitStage()
	p.issueStage()
	p.renameStage()
	p.decodeStage()
	p.fetchStage()
	p.stats.Cycles++
	p.stats.QueuePopSamples += int64(p.intQ.Len() + p.fpQ.Len())
}

// noQueuePosn is IQPosn for a thread with no queued instruction: farther
// from the head than any queue position.
const noQueuePosn = 1 << 20

// buildFeedback returns the per-thread fetch-policy feedback. The stages
// keep every counter live; only IQPosn, a scan of both queues, is computed
// here, and only for a policy that declares it: for each thread, the
// distance from the head of the nearest queue holding one of its
// instructions.
func (p *Processor) buildFeedback() []policy.ThreadFeedback {
	if !p.fetchPol.Needs.IQPosn {
		return p.feedback
	}
	for t := range p.feedback {
		p.feedback[t].IQPosn = noQueuePosn
	}
	for _, q := range []*iq.Queue[*dyn]{p.intQ, p.fpQ} {
		for i, d := range q.All() {
			if fb := &p.feedback[d.thread]; i < fb.IQPosn {
				fb.IQPosn = i
			}
		}
	}
	return p.feedback
}

// occupy charges (n = +1) or discharges (n = −1) d against its thread's
// ICOUNT and BRCOUNT. It is the occupancy rule's one statement: an
// instruction counts toward ICOUNT from fetch until it leaves the IQs (at
// issue, at an optimistic hold's release, or squashed), and a control
// instruction toward BRCOUNT as well.
func (th *threadState) occupy(d *dyn, n int) {
	th.fb.ICount += n
	if d.isControl() {
		th.fb.BrCount += n
	}
}

// event kinds processed at the start of their cycle.
type evKind uint8

const (
	evMemExec  evKind = iota // load/store reaches execution: access the D-cache
	evResolve                // control instruction resolves at the end of exec
	evSquash                 // perform a thread squash triggered by a mispredict
	evMissDone               // an outstanding D-cache miss completes (MISSCOUNT)
)

type event struct {
	kind   evKind
	d      *dyn
	thread int32
	gen    int32 // d.gen at scheduling; a mismatch marks the event stale
}

// ring is a calendar queue for events: one slice header per cycle of the
// configuration's worst-case event horizon (the longest memory round trip
// the hierarchy can quote, TLB walks included), nil while that cycle has
// nothing scheduled. Storage follows what is pending, not the horizon: a
// bucket borrows a backing array from the spare list when its first event
// arrives, and drain hands the previous cycle's backing back, so the
// steady-state schedule/drain cycle is allocation-free once the spare list
// covers the backings in use at once (at most 48 on every Variants
// machine: 47 buckets plus the one being walked, none holding more than
// 33 events). Horizon overruns — possible only through pathological
// queueing pile-ups the static bound cannot see — grow the ring in place
// (amortized once, never per cycle) instead of spilling to a map.
type ring struct {
	buckets [][]event
	spare   [][]event // emptied backings, each of length 0
	drained []event   // the backing the last drain returned, still being walked
	mask    int64
	base    int64
}

// spareSeed backings of bucketSeed events are carved from one array at
// construction: the measured peak of backings in use and of events in a
// bucket, so a machine starts at its working set instead of trickling
// small allocations across its first laps. A bucket that needs more grows
// its backing by append, and the grown backing recycles.
const spareSeed, bucketSeed = 48, 32

func (r *ring) init(horizon int64) {
	size := int64(256)
	for size < horizon {
		size <<= 1
	}
	r.buckets = make([][]event, size)
	r.mask = size - 1
	backing := make([]event, spareSeed*bucketSeed)
	r.spare = make([][]event, spareSeed)
	for i := range r.spare {
		r.spare[i] = backing[i*bucketSeed : i*bucketSeed : (i+1)*bucketSeed]
	}
}

func (r *ring) schedule(cycle int64, kind evKind, d *dyn, thread int32) {
	var gen int32
	if d != nil {
		d.pendingEvts++
		gen = d.gen
	}
	r.insert(cycle, event{kind: kind, d: d, thread: thread, gen: gen})
}

// insert appends ev to cycle's bucket, growing the ring first if cycle lies
// beyond it. An empty bucket borrows a spare backing (or, with none left,
// a fresh one of bucketSeed events). schedule and a checkpoint restore
// both come through here, so a restored machine borrows as a live one does.
func (r *ring) insert(cycle int64, ev event) {
	for cycle-r.base > r.mask {
		r.grow()
	}
	idx := cycle & r.mask
	b := r.buckets[idx]
	if b == nil {
		if n := len(r.spare); n > 0 {
			b, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			b = make([]event, 0, bucketSeed)
		}
	}
	r.buckets[idx] = append(b, ev)
}

// grow doubles the ring. Every live event sits in a bucket whose index
// identifies exactly one cycle in (base, base+size), so buckets relocate
// by slice header — no per-event copying, and the old backing arrays
// carry over. Doubling amortizes: O(log horizon) growths per run.
func (r *ring) grow() {
	old := r.buckets
	oldSize := r.mask + 1
	next := make([][]event, oldSize*2)
	nextMask := oldSize*2 - 1
	for idx, evs := range old {
		if len(evs) == 0 {
			continue
		}
		cycle := r.base + ((int64(idx)-r.base)&(oldSize-1)+oldSize)&(oldSize-1)
		if cycle == r.base {
			cycle += oldSize // the base bucket is drained; a full lap ahead
		}
		next[cycle&nextMask] = evs
	}
	r.buckets = next
	r.mask = nextMask
}

// drain detaches and returns the events scheduled for cycle, in the order
// they were scheduled, and hands the backing the previous drain returned
// back to the spare list. The returned slice is owned by the ring and
// valid until the next drain; an event scheduled while it is walked goes
// to another backing, never into it.
func (r *ring) drain(cycle int64) []event {
	r.base = cycle
	idx := cycle & r.mask
	if r.drained != nil {
		r.spare = append(r.spare, r.drained[:0])
	}
	evs := r.buckets[idx]
	r.buckets[idx] = nil
	r.drained = evs
	return evs
}
