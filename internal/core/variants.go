package core

import (
	"repro/internal/branch"
	"repro/internal/policy"
)

// Variant is one named machine of Variants. Aliases are the later names
// that built the same machine.
type Variant struct {
	Name    string
	Config  Config
	Aliases []string
}

// Variants lists one machine per behaviour a configuration can select, built
// from the registries so that a policy or predictor registered later is
// included with no caller edited: every fetch policy, issue policy and branch
// predictor on the paper's central design point (8 threads, ICOUNT.2.8), one
// machine per Config switch, RR.1.8 and the superscalar. The zero-allocation
// test steps each of them, and internal/exp's path matrix runs each through
// every execution path. A registry entry that is the design point's own
// setting (fetch=ICOUNT, issue=OLDEST_FIRST, predictor=gshare) has its
// Fingerprint, so it is listed once, under the first of those names, with
// the others as its Aliases.
func Variants() []Variant {
	var out []Variant
	seen := map[string]int{}
	add := func(name string, set func(*Config)) {
		cfg := DefaultConfig(8)
		cfg.FetchPolicy, cfg.FetchThreads = policy.ICount, 2
		set(&cfg)
		fp := cfg.Fingerprint()
		if i, ok := seen[fp]; ok {
			out[i].Aliases = append(out[i].Aliases, name)
			return
		}
		seen[fp] = len(out)
		out = append(out, Variant{Name: name, Config: cfg})
	}
	for _, f := range policy.FetchNames() {
		add("fetch="+f, func(c *Config) { c.FetchPolicy = policy.FetchAlg(f) })
	}
	for _, is := range policy.IssueNames() {
		add("issue="+is, func(c *Config) { c.IssuePolicy = policy.IssueAlg(is) })
	}
	for _, pr := range branch.Names() {
		add("predictor="+pr, func(c *Config) { c.Branch.Predictor = pr })
	}
	add("BigQ", func(c *Config) { c.BigQ = true })
	add("ITAG", func(c *Config) { c.ITAG = true })
	add("VarFetchRate", func(c *Config) { c.VarFetchRate = true })
	add("InfiniteFUs", func(c *Config) { c.InfiniteFUs = true })
	add("InfiniteBW", func(c *Config) { c.Mem.InfiniteBW = true })
	add("SpecNoPassBranch", func(c *Config) { c.SpecMode = SpecNoPassBranch })
	add("SpecNoWrongPath", func(c *Config) { c.SpecMode = SpecNoWrongPath })
	add("FetchTotal16", func(c *Config) { c.FetchTotal, c.FetchPerThread = 16, 16 })
	add("RR.1.8", func(c *Config) { c.FetchPolicy, c.FetchThreads = policy.RR, 1 })
	add("Superscalar", func(c *Config) { *c = Superscalar() })
	return out
}
