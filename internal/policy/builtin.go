package policy

// Built-in registrations: the paper's five fetch and four issue policies,
// plus the two composite fetch policies. Everything the enum constants
// name resolves here, so a Config carrying a built-in name behaves exactly
// as the pre-registry enum dispatch did.
func init() {
	// Section 5.2 fetch policies. Each comparison reproduces the historical
	// key ordering: smaller counter first, ties round-robin (the stable
	// sort over the rotation order). Only IQPOSN reads a field that costs
	// the core a scan to fill.
	MustRegisterFetch(Fetch{Name: string(RR)})
	MustRegisterFetch(Fetch{Name: string(BRCount),
		Less: func(a, b ThreadFeedback) bool { return a.BrCount < b.BrCount }})
	MustRegisterFetch(Fetch{Name: string(MissCount),
		Less: func(a, b ThreadFeedback) bool { return a.MissCount < b.MissCount }})
	MustRegisterFetch(Fetch{Name: string(ICount),
		Less: func(a, b ThreadFeedback) bool { return a.ICount < b.ICount }})
	MustRegisterFetch(Fetch{Name: string(IQPosn),
		Needs: FeedbackNeeds{IQPosn: true},
		Less:  func(a, b ThreadFeedback) bool { return a.IQPosn > b.IQPosn }}) // farthest from the head first

	// Composite fetch policies beyond the paper.
	MustRegisterFetch(Fetch{Name: string(ICountBRCount),
		Less: func(a, b ThreadFeedback) bool {
			if a.ICount != b.ICount {
				return a.ICount < b.ICount
			}
			return a.BrCount < b.BrCount
		}})
	MustRegisterFetch(Fetch{Name: string(ICountWeightedMiss),
		Less: func(a, b ThreadFeedback) bool {
			return a.ICount+2*a.MissCount < b.ICount+2*b.MissCount
		}})

	// Section 6 issue policies. Each non-default one separates the ready
	// instructions into two groups by one flag; the stable sort keeps age
	// order within each.
	MustRegisterIssue(Issue{Name: string(OldestFirst)})
	MustRegisterIssue(Issue{Name: string(OptLast),
		Less: func(a, b IssueInfo) bool { return !a.Optimistic && b.Optimistic }})
	MustRegisterIssue(Issue{Name: string(SpecLast),
		Less: func(a, b IssueInfo) bool { return !a.Speculative && b.Speculative }})
	MustRegisterIssue(Issue{Name: string(BranchFirst),
		Less: func(a, b IssueInfo) bool { return a.Branch && !b.Branch }})
}
