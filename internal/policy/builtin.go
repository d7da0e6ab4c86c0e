package policy

// Built-in registrations: the paper's five fetch and four issue policies,
// plus the two composite fetch policies. Everything the enum constants
// name resolves here, so a Config carrying a built-in name behaves exactly
// as the pre-registry enum dispatch did.
func init() {
	// Section 5.2 fetch policies. Each comparison reproduces the historical
	// key ordering: smaller counter first, ties round-robin (the stable
	// sort over the rotation order). Each declares the exact feedback
	// fields it reads — the core skips maintaining the rest.
	MustRegisterFetch(Fetch{Name: string(RR)})
	MustRegisterFetch(Fetch{Name: string(BRCount),
		Needs: FeedbackNeeds{BrCount: true},
		Less:  func(a, b ThreadFeedback) bool { return a.BrCount < b.BrCount }})
	MustRegisterFetch(Fetch{Name: string(MissCount),
		Needs: FeedbackNeeds{MissCount: true},
		Less:  func(a, b ThreadFeedback) bool { return a.MissCount < b.MissCount }})
	MustRegisterFetch(Fetch{Name: string(ICount),
		Needs: FeedbackNeeds{ICount: true},
		Less:  func(a, b ThreadFeedback) bool { return a.ICount < b.ICount }})
	MustRegisterFetch(Fetch{Name: string(IQPosn),
		Needs: FeedbackNeeds{IQPosn: true},
		Less:  func(a, b ThreadFeedback) bool { return a.IQPosn > b.IQPosn }}) // farthest from the head first

	// Composite fetch policies beyond the paper.
	MustRegisterFetch(Fetch{Name: string(ICountBRCount),
		Needs: FeedbackNeeds{ICount: true, BrCount: true},
		Less: func(a, b ThreadFeedback) bool {
			if a.ICount != b.ICount {
				return a.ICount < b.ICount
			}
			return a.BrCount < b.BrCount
		}})
	MustRegisterFetch(Fetch{Name: string(ICountWeightedMiss),
		Needs: FeedbackNeeds{ICount: true, MissCount: true},
		Less: func(a, b ThreadFeedback) bool {
			return a.ICount+2*a.MissCount < b.ICount+2*b.MissCount
		}})

	// Section 6 issue policies, each declaring the one IssueInfo flag its
	// partition reads.
	MustRegisterIssue(Issue{Name: string(OldestFirst)})
	MustRegisterIssue(Issue{Name: string(OptLast), Needs: IssueNeeds{Optimistic: true},
		First: func(i IssueInfo) bool { return !i.Optimistic }})
	MustRegisterIssue(Issue{Name: string(SpecLast), Needs: IssueNeeds{Speculative: true},
		First: func(i IssueInfo) bool { return !i.Speculative }})
	MustRegisterIssue(Issue{Name: string(BranchFirst), Needs: IssueNeeds{Branch: true},
		First: func(i IssueInfo) bool { return i.Branch }})
}
