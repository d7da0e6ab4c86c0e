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
// module's internals). A policy is addressed everywhere — configs, JSON,
// CLI flags, the result cache — by its registered name.
package policy

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// FetchAlg names a registered fetch thread-choice policy. The zero value
// resolves to round-robin. The historical enum constants (RR, ICount, ...)
// are now names, so existing code assigning or comparing them is unchanged.
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

// fetchLegacy maps the historical uint8 enum values (still accepted in
// JSON) to names, in their original declaration order. Index == old value.
var fetchLegacy = [...]FetchAlg{RR, BRCount, MissCount, ICount, IQPosn}

// String returns the policy's registered name ("RR" for the zero value).
func (a FetchAlg) String() string {
	if a == "" {
		return string(RR)
	}
	return string(a)
}

// Selector resolves the name against the fetch registry.
func (a FetchAlg) Selector() (FetchSelector, error) {
	if s, ok := LookupFetch(a.String()); ok {
		return s, nil
	}
	return nil, fmt.Errorf("policy: unknown fetch policy %q (have %v)", a.String(), FetchNames())
}

// MarshalJSON encodes the policy as its name.
func (a FetchAlg) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON accepts a policy name, or the historical numeric enum value
// (pre-registry clients sent {"FetchPolicy": 3} for ICOUNT). Name existence
// is checked at Config.Validate, not here, so configs can be decoded before
// their policies are registered.
func (a *FetchAlg) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		*a = FetchAlg(s)
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		if n < 0 || n >= len(fetchLegacy) {
			return fmt.Errorf("policy: legacy fetch policy index %d out of range [0,%d]", n, len(fetchLegacy)-1)
		}
		*a = fetchLegacy[n]
		return nil
	}
	return fmt.Errorf("policy: fetch policy must be a name or legacy index, got %s", b)
}

// CanonicalFingerprint renders the policy for content addressing
// (fingerprint.Canonicaler). The paper's built-ins keep their historical
// uint8 encoding so every pre-registry fingerprint — and therefore every
// cached result key — survives the redesign; other policies are addressed
// by quoted name, which cannot collide with a bare digit.
func (a FetchAlg) CanonicalFingerprint() string {
	for i, n := range fetchLegacy {
		if n == a {
			return strconv.Itoa(i)
		}
	}
	if a == "" {
		return "0" // zero value is RR
	}
	return strconv.Quote(string(a))
}

// ParseFetchAlg resolves a registered policy name (as printed by String).
func ParseFetchAlg(s string) (FetchAlg, error) {
	a := FetchAlg(s)
	if _, err := a.Selector(); err != nil {
		return "", err
	}
	return a, nil
}

// ThreadFeedback carries the per-thread counters that fetch policies
// consult. The core maintains them; the paper notes this feedback is what
// distinguishes SMT fetch — the ability to know, each cycle, which threads
// are using the machine well.
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

// issueLegacy maps historical uint8 enum values to names; index == value.
var issueLegacy = [...]IssueAlg{OldestFirst, OptLast, SpecLast, BranchFirst}

// String returns the policy's registered name ("OLDEST_FIRST" for zero).
func (a IssueAlg) String() string {
	if a == "" {
		return string(OldestFirst)
	}
	return string(a)
}

// Selector resolves the name against the issue registry.
func (a IssueAlg) Selector() (IssueSelector, error) {
	if s, ok := LookupIssue(a.String()); ok {
		return s, nil
	}
	return nil, fmt.Errorf("policy: unknown issue policy %q (have %v)", a.String(), IssueNames())
}

// MarshalJSON encodes the policy as its name.
func (a IssueAlg) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON accepts a policy name or the historical numeric enum value.
func (a *IssueAlg) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		*a = IssueAlg(s)
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		if n < 0 || n >= len(issueLegacy) {
			return fmt.Errorf("policy: legacy issue policy index %d out of range [0,%d]", n, len(issueLegacy)-1)
		}
		*a = issueLegacy[n]
		return nil
	}
	return fmt.Errorf("policy: issue policy must be a name or legacy index, got %s", b)
}

// CanonicalFingerprint renders the policy for content addressing; built-ins
// keep their historical uint8 encoding (see FetchAlg.CanonicalFingerprint).
func (a IssueAlg) CanonicalFingerprint() string {
	for i, n := range issueLegacy {
		if n == a {
			return strconv.Itoa(i)
		}
	}
	if a == "" {
		return "0" // zero value is OLDEST_FIRST
	}
	return strconv.Quote(string(a))
}

// ParseIssueAlg resolves a registered policy name (as printed by String).
func ParseIssueAlg(s string) (IssueAlg, error) {
	a := IssueAlg(s)
	if _, err := a.Selector(); err != nil {
		return "", err
	}
	return a, nil
}

// IssueInfo describes one ready instruction for issue ordering.
type IssueInfo struct {
	Age         int64 // global age (smaller = older = deeper in queue)
	Optimistic  bool  // depends on a load whose hit status is still unknown
	Speculative bool  // behind an unresolved branch of the same thread
	Branch      bool  // is a control-flow instruction
}
