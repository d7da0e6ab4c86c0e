package policy

// FetchSelector is the fetch-policy extension point: given the per-thread
// feedback the core maintains, order the hardware contexts best-first.
//
// Contract: Order must fill out (reusing its backing array) with a
// permutation of [0, len(fb)), deterministically — the simulator's
// reproducibility guarantees flow through it. rrBase is the core's rotating
// baseline priority; implementations should start from the rotation
// (rrBase, rrBase+1, ... mod n) and reorder stably so that ties break
// round-robin, as every policy in the paper does. NewFetchSelector builds
// a conforming selector from a plain comparison.
type FetchSelector interface {
	// Name is the selector's registry key, e.g. "ICOUNT".
	Name() string
	// Order appends all thread ids to out[:0] in priority order.
	Order(rrBase int, fb []ThreadFeedback, out []int) []int
}

// FeedbackNeeds declares which ThreadFeedback fields a fetch selector
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

// FeedbackNeedsReader is an optional FetchSelector refinement declaring
// the selector's exact feedback requirements. Selectors not implementing
// it are assumed to read every field (the safe default for custom
// policies).
type FeedbackNeedsReader interface {
	FeedbackNeeds() FeedbackNeeds
}

// FeedbackNeedsOf resolves the feedback fields the core must fill for s.
func FeedbackNeedsOf(s FetchSelector) FeedbackNeeds {
	if r, ok := s.(FeedbackNeedsReader); ok {
		return r.FeedbackNeeds()
	}
	return FeedbackNeeds{ICount: true, BrCount: true, MissCount: true, IQPosn: true, LowConf: true}
}

// fetchFunc is the standard FetchSelector shape: rotation order, then a
// stable sort by a feedback comparison (nil keeps pure rotation — RR).
type fetchFunc struct {
	name  string
	less  func(a, b ThreadFeedback) bool
	needs FeedbackNeeds
}

func (s *fetchFunc) Name() string                 { return s.name }
func (s *fetchFunc) FeedbackNeeds() FeedbackNeeds { return s.needs }

func (s *fetchFunc) Order(rrBase int, fb []ThreadFeedback, out []int) []int {
	n := len(fb)
	out = out[:0]
	for i := 0; i < n; i++ {
		out = append(out, (rrBase+i)%n)
	}
	if s.less != nil {
		// Stable insertion sort over the rotation order: closure-free (no
		// per-cycle allocation, unlike sort.SliceStable's func values and
		// reflection swapper) and fast for the bounded thread counts the
		// machine runs. Shifting only on strict less keeps equal keys in
		// rotation order — the same permutation a stable sort produces.
		for i := 1; i < n; i++ {
			t := out[i]
			j := i
			for j > 0 && s.less(fb[t], fb[out[j-1]]) {
				out[j] = out[j-1]
				j--
			}
			out[j] = t
		}
	}
	return out
}

// NewFetchSelector builds a fetch selector that orders threads by less
// (best first), with ties breaking round-robin — the shape of every policy
// in the paper. A nil less keeps pure rotation order. readsQueuePositions
// declares whether less consults ThreadFeedback.IQPosn (see
// FeedbackNeeds); pass false unless it does, to spare the per-cycle queue
// scan. Selectors built here are assumed to read every counter; the
// built-ins declare tighter FeedbackNeeds at registration.
func NewFetchSelector(name string, less func(a, b ThreadFeedback) bool, readsQueuePositions bool) FetchSelector {
	return &fetchFunc{name: name, less: less,
		needs: FeedbackNeeds{ICount: true, BrCount: true, MissCount: true, IQPosn: readsQueuePositions, LowConf: true}}
}

// IssueSelector is the issue-policy extension point: a strict weak ordering
// over ready instructions. The core merges both queues' candidates
// oldest-first and reorders them with Less (stably, so equal candidates
// keep age order); implementations should break all ties oldest-first, as
// every policy in the paper does.
type IssueSelector interface {
	// Name is the selector's registry key, e.g. "OPT_LAST".
	Name() string
	// Less reports whether a should issue before b.
	Less(a, b IssueInfo) bool
}

// IssueNeeds declares which IssueInfo fields an issue selector actually
// reads (Age is always maintained — it is the candidate order itself).
// Optimistic costs two register-file probes per candidate per cycle;
// Speculative costs a both-queue scan per cycle for the per-thread oldest
// unresolved branch. The core computes only what the selector declares.
type IssueNeeds struct {
	Optimistic  bool
	Speculative bool
	Branch      bool
}

// IssueNeedsReader is an optional IssueSelector refinement declaring the
// selector's exact IssueInfo requirements. Selectors not implementing it
// are assumed to read everything (the safe default for custom policies).
type IssueNeedsReader interface {
	IssueNeeds() IssueNeeds
}

// IssueNeedsOf resolves the IssueInfo fields the core must fill for s.
func IssueNeedsOf(s IssueSelector) IssueNeeds {
	if r, ok := s.(IssueNeedsReader); ok {
		return r.IssueNeeds()
	}
	return IssueNeeds{Optimistic: true, Speculative: true, Branch: true}
}

// IssuePartitioner is an optional IssueSelector fast path for policies
// whose order is a single stable boolean partition of the age-sorted
// candidate list (all of the paper's non-default policies). The core
// partitions in O(n) instead of sorting. First must be consistent with
// Less: Less(a,b) == (First(a) && !First(b)) || (First(a)==First(b) &&
// a.Age < b.Age).
type IssuePartitioner interface {
	First(IssueInfo) bool
}

// OrderNeutral is an optional IssueSelector marker for policies whose
// order is pure age order (OLDEST_FIRST): the core's candidate list is
// already age-sorted, so no reordering happens at all.
type OrderNeutral interface {
	OrderNeutralIssue()
}

// oldestFirst is OLDEST_FIRST: pure age order, no reordering needed.
type oldestFirst struct{}

func (oldestFirst) Name() string             { return string(OldestFirst) }
func (oldestFirst) Less(a, b IssueInfo) bool { return a.Age < b.Age }
func (oldestFirst) OrderNeutralIssue()       {}
func (oldestFirst) First(IssueInfo) bool     { return true }
func (oldestFirst) IssueNeeds() IssueNeeds   { return IssueNeeds{} }

// flagIssue is the shape of the paper's non-default issue policies: one
// boolean partition with oldest-first tie-break.
type flagIssue struct {
	name  string
	first func(IssueInfo) bool
	needs IssueNeeds // the single flag the partition reads
}

func (s *flagIssue) Name() string           { return s.name }
func (s *flagIssue) First(i IssueInfo) bool { return s.first(i) }
func (s *flagIssue) IssueNeeds() IssueNeeds { return s.needs }

func (s *flagIssue) Less(a, b IssueInfo) bool {
	if fa, fb := s.first(a), s.first(b); fa != fb {
		return fa
	}
	return a.Age < b.Age
}

// issueFunc is a custom issue selector built from a plain comparison.
type issueFunc struct {
	name string
	less func(a, b IssueInfo) bool
	opt  bool
}

func (s *issueFunc) Name() string             { return s.name }
func (s *issueFunc) Less(a, b IssueInfo) bool { return s.less(a, b) }
func (s *issueFunc) IssueNeeds() IssueNeeds {
	return IssueNeeds{Optimistic: s.opt, Speculative: true, Branch: true}
}

// NewIssueSelector builds an issue selector from a comparison. less must be
// a strict weak ordering and should break ties oldest-first (compare Age
// last). readsOptimism declares whether less consults
// IssueInfo.Optimistic (see IssueNeeds); the other flags are always
// filled for selectors built here.
func NewIssueSelector(name string, less func(a, b IssueInfo) bool, readsOptimism bool) IssueSelector {
	return &issueFunc{name: name, less: less, opt: readsOptimism}
}
