package policy

import "repro/internal/registry"

// The registries map policy names to policy values, listed built-ins first
// (in the paper's order), then composites, then caller registrations. The
// empty name resolves to each algorithm type's zero value. They hold and
// return values, not pointers: what a name means — the name is a content
// address — cannot change after registration.
var (
	fetchReg = registry.Named[Fetch]{Pkg: "policy", Kind: "fetch policy", Default: string(RR)}
	issueReg = registry.Named[Issue]{Pkg: "policy", Kind: "issue policy", Default: string(OldestFirst)}
)

// RegisterFetch adds a fetch policy to the registry under f.Name. Names
// are permanent within a process: re-registering one fails.
func RegisterFetch(f Fetch) error { return fetchReg.Register(f.Name, f) }

// MustRegisterFetch is RegisterFetch for init-time registrations.
func MustRegisterFetch(f Fetch) {
	if err := RegisterFetch(f); err != nil {
		panic(err)
	}
}

// LookupFetch returns the policy registered under name; the empty name
// resolves to round-robin.
func LookupFetch(name string) (Fetch, bool) { return fetchReg.Lookup(name) }

// FetchNames returns every registered fetch policy name in registration
// order (built-ins first).
func FetchNames() []string { return fetchReg.Names() }

// RegisterIssue adds an issue policy to the registry under i.Name; same
// permanence rules as RegisterFetch.
func RegisterIssue(i Issue) error { return issueReg.Register(i.Name, i) }

// MustRegisterIssue is RegisterIssue for init-time registrations.
func MustRegisterIssue(i Issue) {
	if err := RegisterIssue(i); err != nil {
		panic(err)
	}
}

// LookupIssue returns the policy registered under name; the empty name
// resolves to OLDEST_FIRST.
func LookupIssue(name string) (Issue, bool) { return issueReg.Lookup(name) }

// IssueNames returns every registered issue policy name in registration
// order (built-ins first).
func IssueNames() []string { return issueReg.Names() }
