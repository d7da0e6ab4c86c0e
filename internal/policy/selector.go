package policy

// Fetch is a fetch policy: a registered name, the comparison that orders
// the hardware contexts best-first, and the feedback fields the
// comparison reads. Every policy in the paper has this shape — order the
// contexts by one per-thread counter, ties round-robin.
//
// Less must be deterministic (the simulator's reproducibility guarantees
// flow through it) and read only the ThreadFeedback fields Needs
// declares; the core leaves the others unfilled. A nil Less is pure
// rotation: round-robin.
type Fetch struct {
	Name  string
	Less  func(a, b ThreadFeedback) bool
	Needs FeedbackNeeds
}

// FeedbackNeeds declares which ThreadFeedback fields a fetch policy
// actually reads, so the core maintains and publishes only those each
// cycle. IQPosn is the expensive one (a both-queue scan per cycle); the
// counters are cheap but skipping them keeps the feedback build
// branch-free for RR, which reads nothing at all.
type FeedbackNeeds struct {
	ICount    bool
	BrCount   bool
	MissCount bool
	IQPosn    bool
	LowConf   bool
}

// Order appends all thread ids to out[:0] in priority order: the rotation
// (rrBase, rrBase+1, ... mod n), reordered stably under Less so that ties
// break round-robin. rrBase is the core's rotating baseline priority.
func (f *Fetch) Order(rrBase int, fb []ThreadFeedback, out []int) []int {
	n := len(fb)
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, (rrBase+i)%n)
	}
	if f.Less != nil {
		// Stable insertion sort over the rotation order: closure-free (no
		// per-cycle allocation, unlike sort.SliceStable's func values and
		// reflection swapper) and fast for the bounded thread counts the
		// machine runs. Shifting only on strict less keeps equal keys in
		// rotation order — the same permutation a stable sort produces.
		for i := 1; i < n; i++ {
			t := out[i]
			j := i
			for j > 0 && f.Less(fb[t], fb[out[j-1]]) {
				out[j] = out[j-1]
				j--
			}
			out[j] = t
		}
	}
	return out
}

// Issue is an issue policy: a registered name, how it reorders the
// oldest-first list of ready instructions, and the IssueInfo fields it
// reads. At most one of First and Less is set:
//
//   - First, the shape of the paper's non-default policies: candidates it
//     accepts issue before those it rejects, oldest-first within each
//     group — one O(n) stable partition;
//   - Less, a strict weak ordering the core applies as a stable sort, so
//     equal candidates keep age order (compare Age last to break every
//     tie oldest-first, as every policy in the paper does: a First policy
//     restated as a Less that way issues exactly as the First does);
//   - neither: pure age order, OLDEST_FIRST — the list is consumed as is.
//
// Both must be deterministic and read only the fields Needs declares.
type Issue struct {
	Name  string
	First func(IssueInfo) bool
	Less  func(a, b IssueInfo) bool
	Needs IssueNeeds
}

// IssueNeeds declares which IssueInfo fields an issue policy actually
// reads (Age is always maintained — it is the candidate order itself).
// Optimistic costs two register-file probes per candidate per cycle;
// Speculative costs a both-queue scan per cycle for the per-thread oldest
// unresolved branch. The core computes only what the policy declares.
type IssueNeeds struct {
	Optimistic  bool
	Speculative bool
	Branch      bool
}
