package policy

import (
	"fmt"

	"repro/internal/registry"
)

// The registries map policy names to selectors, listed built-ins first (in
// the paper's order), then composites, then caller registrations. The
// empty name resolves to each algorithm type's zero value.
var (
	fetchReg = registry.Named[FetchSelector]{Pkg: "policy", Kind: "fetch policy", Default: string(RR)}
	issueReg = registry.Named[IssueSelector]{Pkg: "policy", Kind: "issue policy", Default: string(OldestFirst)}
)

// RegisterFetch adds a fetch selector to the registry under s.Name().
// Names are permanent within a process: re-registering one fails.
func RegisterFetch(s FetchSelector) error {
	if s == nil {
		return fmt.Errorf("policy: nil fetch selector")
	}
	return fetchReg.Register(s.Name(), s)
}

// MustRegisterFetch is RegisterFetch for init-time registrations.
func MustRegisterFetch(s FetchSelector) {
	if err := RegisterFetch(s); err != nil {
		panic(err)
	}
}

// LookupFetch returns the selector registered under name; the empty name
// resolves to round-robin.
func LookupFetch(name string) (FetchSelector, bool) { return fetchReg.Lookup(name) }

// FetchNames returns every registered fetch policy name in registration
// order (built-ins first).
func FetchNames() []string { return fetchReg.Names() }

// RegisterIssue adds an issue selector to the registry under s.Name();
// same permanence rules as RegisterFetch.
func RegisterIssue(s IssueSelector) error {
	if s == nil {
		return fmt.Errorf("policy: nil issue selector")
	}
	return issueReg.Register(s.Name(), s)
}

// MustRegisterIssue is RegisterIssue for init-time registrations.
func MustRegisterIssue(s IssueSelector) {
	if err := RegisterIssue(s); err != nil {
		panic(err)
	}
}

// LookupIssue returns the selector registered under name; the empty name
// resolves to OLDEST_FIRST.
func LookupIssue(name string) (IssueSelector, bool) { return issueReg.Lookup(name) }

// IssueNames returns every registered issue policy name in registration
// order (built-ins first).
func IssueNames() []string { return issueReg.Names() }
