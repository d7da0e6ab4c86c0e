package smt

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// RunSpec describes one streaming run session.
type RunSpec struct {
	// Instructions is the committed-instruction budget (summed across all
	// threads): the session stops at the first cycle boundary where at
	// least this many instructions have committed since it started —
	// exactly the blocking Run semantics. Zero runs no measurement cycles
	// (useful for warmup-only sessions).
	Instructions int64
	// Warmup, when positive, first commits this many instructions and then
	// resets all statistics (cache and predictor contents persist) before
	// measurement begins — the Simulator.Warmup semantics, folded into the
	// session so one call expresses the paper's whole methodology.
	Warmup int64
	// MaxCycles, when positive, bounds the cycles stepped by the
	// measurement phase regardless of commit progress.
	MaxCycles int64
	// IntervalCycles, when positive, emits a Snapshot every that many
	// measured cycles. Zero streams no intermediate snapshots — only the
	// final one.
	IntervalCycles int64
}

func (r RunSpec) validate() error {
	switch {
	case r.Instructions < 0:
		return fmt.Errorf("smt: RunSpec.Instructions = %d, want >= 0", r.Instructions)
	case r.Warmup < 0:
		return fmt.Errorf("smt: RunSpec.Warmup = %d, want >= 0", r.Warmup)
	case r.MaxCycles < 0:
		return fmt.Errorf("smt: RunSpec.MaxCycles = %d, want >= 0", r.MaxCycles)
	case r.IntervalCycles < 0:
		return fmt.Errorf("smt: RunSpec.IntervalCycles = %d, want >= 0", r.IntervalCycles)
	}
	return nil
}

// Snapshot is one interval observation of a running session.
type Snapshot struct {
	// Index numbers snapshots from 0 in emission order.
	Index int
	// Done marks the session's final snapshot: the budget was reached, the
	// cycle bound hit, or the context cancelled.
	Done bool
	// Cycles is the simulator's cumulative cycle count at the snapshot
	// (since the last statistics reset), i.e. Cumulative.Cycles.
	Cycles int64
	// Cumulative is the full metric set since measurement began — for the
	// final snapshot, byte-identical to what the blocking Run returns.
	Cumulative Results
	// Delta is the metric set of this interval alone (since the previous
	// snapshot), every rate computed over the interval's own cycles.
	Delta Results
}

// Session is one streaming run: the simulation advances on a background
// goroutine and interval snapshots arrive on Snapshots. Consume them with
// a range loop, or skip straight to Finish, which drains the stream and
// returns the final cumulative results. One of the two must be done —
// an abandoned, uncancelled session leaks its goroutine. A Simulator
// supports one session at a time; Run, RunCycles, and Warmup are wrappers
// over sessions, so they contend for the same slot.
type Session struct {
	snaps chan Snapshot
	final Results
	err   error
}

// Snapshots returns the session's snapshot stream. The channel is closed
// after the final (Done) snapshot is delivered — or, when the context is
// cancelled, without one (Finish still reports the results at the stop).
func (se *Session) Snapshots() <-chan Snapshot { return se.snaps }

// Finish drains any undelivered snapshots, waits for the session to end,
// and returns the final cumulative results (partial if the context was
// cancelled, in which case the error is the context's).
func (se *Session) Finish() (Results, error) {
	for range se.snaps {
	}
	return se.final, se.err
}

// Start begins a streaming run session. The returned session owns the
// simulator until it finishes: concurrent Start (or Run/Warmup) calls fail
// until then. Cancelling ctx stops the simulation at the next cycle
// boundary; the session then ends without a final snapshot emission, and
// Finish reports the partial results with the context's error.
func (s *Simulator) Start(ctx context.Context, spec RunSpec) (*Session, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if !s.running.CompareAndSwap(false, true) {
		return nil, errBusy
	}
	se := &Session{snaps: make(chan Snapshot, 1)}
	go se.run(ctx, s, spec)
	return se, nil
}

// run is the session body. It reproduces the blocking Run loop exactly —
// same step sequence, same stop condition — with snapshot observation
// layered on top, which is what makes a streamed session's final
// cumulative results byte-identical to Run's on the same machine and seed.
func (se *Session) run(ctx context.Context, sim *Simulator, spec RunSpec) {
	defer close(se.snaps)
	defer sim.running.Store(false)

	p := sim.proc
	if spec.Warmup > 0 {
		// Step until Warmup more instructions commit, with the
		// measurement loop's amortized cancellation poll so a cancelled
		// session stops mid-warmup too.
		warmStart := p.Committed()
		for c := int64(0); p.Committed()-warmStart < spec.Warmup; c++ {
			if c&255 == 0 && ctx.Err() != nil {
				se.err = ctx.Err()
				se.final = sim.observe().results()
				return
			}
			p.Step()
		}
		p.ResetStats()
	}

	start := p.Committed()
	prev := sim.observe()
	index := 0
	cycles := int64(0)
	nextSnap := int64(0)
	if spec.IntervalCycles > 0 {
		nextSnap = spec.IntervalCycles
	}

	// emit sends one snapshot; it reports false when the context was
	// cancelled while the receiver was away. Cancellation racing the final
	// delivery only drops the delivery: the simulation did reach its
	// budget, so the session still finishes without error.
	emit := func(done bool) bool {
		cur := sim.observe()
		snap := Snapshot{
			Index:      index,
			Done:       done,
			Cycles:     cur.st.Cycles,
			Cumulative: cur.results(),
			Delta:      cur.sub(prev).results(),
		}
		prev = cur
		index++
		if done {
			se.final = snap.Cumulative
		}
		select {
		case se.snaps <- snap:
			return true
		case <-ctx.Done():
			if !done {
				se.err = ctx.Err()
			}
			return false
		}
	}

	for p.Committed()-start < spec.Instructions {
		if spec.MaxCycles > 0 && cycles >= spec.MaxCycles {
			break
		}
		// The cancellation poll is amortized: a mutexed ctx.Err every cycle
		// would dominate short-cycle stepping.
		if cycles&255 == 0 && ctx.Err() != nil {
			se.err = ctx.Err()
			se.final = sim.observe().results()
			return
		}
		p.Step()
		cycles++
		if nextSnap > 0 && cycles >= nextSnap {
			if !emit(false) {
				se.final = sim.observe().results()
				return
			}
			nextSnap += spec.IntervalCycles
		}
	}
	if !emit(true) {
		return
	}
}

// errBusy is what a second claim on a simulator's one session slot gets.
var errBusy = errors.New("smt: simulator already has an active session")

// Warmup runs `instructions` commits without recording statistics, then
// resets all counters (cache and predictor contents persist — that is the
// point). It is a warmup-only session; it panics if a session is active.
func (s *Simulator) Warmup(instructions int64) {
	if instructions > 0 {
		s.blockingSession(RunSpec{Warmup: instructions})
		return
	}
	// A zero-instruction warmup still resets the counters, holding the
	// session slot while it does.
	if !s.running.CompareAndSwap(false, true) {
		panic(errBusy)
	}
	defer s.running.Store(false)
	s.proc.ResetStats()
}

// Run commits at least `instructions` more instructions and returns the
// accumulated results. It is a session consumed to completion; it panics
// if a streaming session is active.
func (s *Simulator) Run(instructions int64) Results {
	return s.blockingSession(RunSpec{Instructions: instructions})
}

// RunCycles advances exactly `cycles` cycles; it panics if a streaming
// session is active.
func (s *Simulator) RunCycles(cycles int64) Results {
	if cycles <= 0 {
		return s.blockingSession(RunSpec{}) // steps nothing
	}
	return s.blockingSession(RunSpec{Instructions: math.MaxInt64, MaxCycles: cycles})
}

// blockingSession runs a session to completion on the caller's goroutine's
// behalf and returns its final results.
func (s *Simulator) blockingSession(spec RunSpec) Results {
	se, err := s.Start(context.Background(), spec)
	if err != nil {
		panic(err)
	}
	res, _ := se.Finish()
	return res
}
