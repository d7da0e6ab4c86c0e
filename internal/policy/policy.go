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
// name, a comparison or a flag, and the feedback it reads — and is
// addressed everywhere — configs, JSON, CLI flags, the result cache — by
// its registered name.
package policy

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/registry"
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

// Resolve looks the name up in the fetch registry.
func (a FetchAlg) Resolve() (Fetch, error) { return resolve(&fetchReg, a.String()) }

// MarshalJSON encodes the policy as its name.
func (a FetchAlg) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON accepts a policy name, or the historical numeric enum value
// (pre-registry clients sent {"FetchPolicy": 3} for ICOUNT). Name existence
// is checked at Config.Validate, not here, so configs can be decoded before
// their policies are registered.
func (a *FetchAlg) UnmarshalJSON(b []byte) (err error) {
	*a, err = unmarshalAlg(b, fetchReg.Kind, fetchLegacy[:])
	return err
}

// CanonicalFingerprint renders the policy for content addressing
// (fingerprint.Canonicaler). The paper's built-ins keep their historical
// uint8 encoding so every pre-registry fingerprint — and therefore every
// cached result key — survives the redesign; other policies are addressed
// by quoted name, which cannot collide with a bare digit.
func (a FetchAlg) CanonicalFingerprint() string { return canonicalAlg(a, fetchLegacy[:]) }

// ParseFetchAlg resolves a registered policy name (as printed by String).
func ParseFetchAlg(s string) (FetchAlg, error) { return parseAlg[FetchAlg](&fetchReg, s) }

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

// Resolve looks the name up in the issue registry.
func (a IssueAlg) Resolve() (Issue, error) { return resolve(&issueReg, a.String()) }

// MarshalJSON encodes the policy as its name.
func (a IssueAlg) MarshalJSON() ([]byte, error) { return json.Marshal(a.String()) }

// UnmarshalJSON accepts a policy name or the historical numeric enum value.
func (a *IssueAlg) UnmarshalJSON(b []byte) (err error) {
	*a, err = unmarshalAlg(b, issueReg.Kind, issueLegacy[:])
	return err
}

// CanonicalFingerprint renders the policy for content addressing; built-ins
// keep their historical uint8 encoding (see FetchAlg.CanonicalFingerprint).
func (a IssueAlg) CanonicalFingerprint() string { return canonicalAlg(a, issueLegacy[:]) }

// ParseIssueAlg resolves a registered policy name (as printed by String).
func ParseIssueAlg(s string) (IssueAlg, error) { return parseAlg[IssueAlg](&issueReg, s) }

// IssueInfo describes one ready instruction for issue ordering.
type IssueInfo struct {
	Age         int64 // global age (smaller = older = deeper in queue)
	Optimistic  bool  // depends on a load whose hit status is still unknown
	Speculative bool  // behind an unresolved branch of the same thread
	Branch      bool  // is a control-flow instruction
}

// resolve, parseAlg, unmarshalAlg and canonicalAlg are the one codec behind both
// algorithm types; legacy maps a historical uint8 enum value (its index) to
// a name, and its first entry is what the zero value means.

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

func unmarshalAlg[A ~string](b []byte, kind string, legacy []A) (A, error) {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		return A(s), nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err == nil {
		if n < 0 || n >= len(legacy) {
			return "", fmt.Errorf("policy: legacy %s index %d out of range [0,%d]", kind, n, len(legacy)-1)
		}
		return legacy[n], nil
	}
	return "", fmt.Errorf("policy: %s must be a name or legacy index, got %s", kind, b)
}

func canonicalAlg[A ~string](a A, legacy []A) string {
	if a == "" {
		return "0"
	}
	for i, n := range legacy {
		if n == a {
			return strconv.Itoa(i)
		}
	}
	return strconv.Quote(string(a))
}
