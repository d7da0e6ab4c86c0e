// Package policy implements the paper's fetch and issue selection
// heuristics — the "exploiting choice" of the title — as pluggable,
// name-registered strategies.
//
// Fetch policies (Section 5.2) order the hardware contexts by desirability
// each cycle, using feedback counters the core maintains:
//
//	RR        round-robin (baseline)
//	BRCOUNT   fewest unresolved branches first (wrong-path avoidance)
//	MISSCOUNT fewest outstanding D-cache misses first (IQ-clog avoidance)
//	ICOUNT    fewest instructions in decode/rename/IQ first (general clog
//	          avoidance and queue-mix balance; the paper's winner)
//	IQPOSN    penalize threads whose oldest instructions sit at the queue
//	          heads (like ICOUNT, without per-thread counters)
//
// Issue policies (Section 6) order ready instructions within the queues:
//
//	OLDEST_FIRST  deepest-in-queue first (default)
//	OPT_LAST      optimistically issued instructions after all others
//	SPEC_LAST     speculative instructions after all others
//	BRANCH_FIRST  branches as early as possible
//
// Beyond the paper, two composite policies ship registered by default —
// ICOUNT+BRCOUNT (ICOUNT with unresolved-branch tie-break) and
// ICOUNT+2MISSCOUNT (instruction count weighted by outstanding misses) —
// and callers can register their own with RegisterFetch / RegisterIssue
// (or smt.RegisterFetchPolicy / smt.RegisterIssuePolicy from outside the
// module's internals). A policy is data — a Fetch or an Issue value: a
// name and a comparison, plus, for a fetch policy, whether it reads the
// costly queue-position feedback — and is addressed everywhere — configs,
// JSON, CLI flags, the result cache — by its registered name.
package policy

import (
	"encoding/json"
	"fmt"

	"repro/internal/registry"
)

// FetchAlg names a registered fetch thread-choice policy. The zero value
// resolves to round-robin. In JSON it is the name as a string; name
// existence is checked at Config.Validate, not at decode, so configs can be
// decoded before their policies are registered.
type FetchAlg string

// Fetch policies from Section 5.2 of the paper.
const (
	RR        FetchAlg = "RR"
	BRCount   FetchAlg = "BRCOUNT"
	MissCount FetchAlg = "MISSCOUNT"
	ICount    FetchAlg = "ICOUNT"
	IQPosn    FetchAlg = "IQPOSN"
)

// Composite fetch policies beyond the paper, proving the extension point.
const (
	// ICountBRCount is ICOUNT with ties broken by fewest unresolved
	// branches — the hybrid the paper hints at when it notes BRCOUNT's
	// wrong-path avoidance is complementary to ICOUNT's clog avoidance.
	ICountBRCount FetchAlg = "ICOUNT+BRCOUNT"
	// ICountWeightedMiss orders threads by ICount + 2*MissCount: a thread's
	// outstanding D-cache misses predict instructions about to clog the
	// queues, so they are charged ahead of time at double weight.
	ICountWeightedMiss FetchAlg = "ICOUNT+2MISSCOUNT"
)

// String returns the policy's registered name ("RR" for the zero value).
func (a FetchAlg) String() string {
	if a == "" {
		return string(RR)
	}
	return string(a)
}

// Resolve looks the name up in the fetch registry.
func (a FetchAlg) Resolve() (Fetch, error) { return resolve(&fetchReg, a.String()) }

// MarshalJSON encodes the policy as its name.
func (a FetchAlg) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// ParseFetchAlg resolves a registered policy name (as printed by String).
func ParseFetchAlg(s string) (FetchAlg, error) { return parseAlg[FetchAlg](&fetchReg, s) }

// ThreadFeedback carries the per-thread counters that fetch policies
// consult, kept live by the stages; IQPosn is filled only on request
// (FeedbackNeeds). The paper notes this feedback is what distinguishes SMT
// fetch — the ability to know, each cycle, which threads use the machine well.
type ThreadFeedback struct {
	ICount    int // instructions in decode, rename, and the IQs
	BrCount   int // unresolved branches in decode, rename, and the IQs
	MissCount int // outstanding D-cache misses
	IQPosn    int // min distance-from-head of the thread's oldest IQ entry
	// across both queues (large = far from head = good);
	// threads with no queued instructions report a large value

	// LowConf counts the thread's in-flight low-confidence conditional
	// branches, as estimated by the branch predictor at fetch. BRCOUNT
	// weighted by confidence: a custom policy can deprioritize threads
	// likely to be fetching down a wrong path without charging them for
	// well-predicted branches.
	LowConf int
}

// IssueAlg names a registered issue-priority policy (Section 6). The zero
// value resolves to OLDEST_FIRST.
type IssueAlg string

// Issue policies from Section 6 of the paper.
const (
	OldestFirst IssueAlg = "OLDEST_FIRST"
	OptLast     IssueAlg = "OPT_LAST"
	SpecLast    IssueAlg = "SPEC_LAST"
	BranchFirst IssueAlg = "BRANCH_FIRST"
)

// String returns the policy's registered name ("OLDEST_FIRST" for zero).
func (a IssueAlg) String() string {
	if a == "" {
		return string(OldestFirst)
	}
	return string(a)
}

// Resolve looks the name up in the issue registry.
func (a IssueAlg) Resolve() (Issue, error) { return resolve(&issueReg, a.String()) }

// MarshalJSON encodes the policy as its name.
func (a IssueAlg) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// ParseIssueAlg resolves a registered policy name (as printed by String).
func ParseIssueAlg(s string) (IssueAlg, error) { return parseAlg[IssueAlg](&issueReg, s) }

// IssueInfo describes one ready instruction for issue ordering.
type IssueInfo struct {
	Age        int64 // rank in the cycle's merged issue stream, the order OLDEST_FIRST issues in (smaller = older)
	Optimistic bool  // depends on a load whose hit status is still unknown

	// Speculative: an older control instruction of the same thread is
	// unresolved, whether it still waits in a queue or has issued and is
	// executing — the instruction sits behind a branch the machine has
	// not yet checked.
	Speculative bool

	Branch bool // is a control-flow instruction
}

// resolve and parseAlg are the one lookup behind both algorithm types.

func resolve[P any](reg *registry.Named[P], name string) (P, error) {
	p, ok := reg.Lookup(name)
	if !ok {
		return p, fmt.Errorf("policy: unknown %s %q (have %v)", reg.Kind, name, reg.Names())
	}
	return p, nil
}

func parseAlg[A ~string, P any](reg *registry.Named[P], s string) (A, error) {
	if _, err := resolve(reg, s); err != nil {
		return "", err
	}
	return A(s), nil
}
