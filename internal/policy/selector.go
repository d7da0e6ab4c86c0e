package policy

// Fetch is a fetch policy: a registered name, the comparison that orders
// the hardware contexts best-first, and the costly feedback it reads.
// Every policy in the paper has this shape — order the contexts by one
// per-thread counter, ties round-robin.
//
// Less must be deterministic (the simulator's reproducibility guarantees
// flow through it). It reads every ThreadFeedback field but IQPosn
// freely, and IQPosn only when Needs declares it. A nil Less is pure
// rotation: round-robin.
type Fetch struct {
	Name  string
	Less  func(a, b ThreadFeedback) bool
	Needs FeedbackNeeds
}

// FeedbackNeeds declares the costly ThreadFeedback field a fetch policy
// reads. The stages keep every other field live in place; IQPosn is a scan
// of both queues, run only on request. Scanning always would cost 8-thread
// ICOUNT.2.8 about 5 % of a ~3 µs cycle (same-process A/B, 2-vCPU host),
// and no incremental index is cheaper: each queue compaction shifts every
// entry from the first removal onward, and removals start near the head.
type FeedbackNeeds struct {
	IQPosn bool
}

// Order appends all thread ids to out[:0] in priority order: the rotation
// (rrBase, rrBase+1, ... mod n), reordered stably under Less so that ties
// break round-robin. rrBase is the core's rotating baseline priority.
func (f *Fetch) Order(rrBase int, fb []ThreadFeedback, out []int) []int {
	n := len(fb)
	out = out[:0]
	for t := rrBase % n; len(out) < n; t++ {
		if t == n {
			t = 0
		}
		out = append(out, t)
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

// Issue is an issue policy: a registered name and the comparison that
// reorders the cycle's ready instructions. The core fills every IssueInfo
// field and applies Less as a stable sort of the oldest-first stream, so
// candidates Less does not separate keep age order: a boolean comparison
// such as "a is not optimistic and b is" issues one group before the
// other, oldest-first within each — the shape of the paper's OPT_LAST,
// SPEC_LAST and BRANCH_FIRST. A nil Less is pure age order, OLDEST_FIRST:
// the stream is consumed as is. Less must be a deterministic strict weak
// ordering.
type Issue struct {
	Name string
	Less func(a, b IssueInfo) bool
}
