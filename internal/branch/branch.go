// Package branch implements the simulator's branch prediction subsystem as
// a name-keyed registry of predictors, mirroring the fetch/issue policy
// registry in internal/policy.
//
// Every predictor shares the paper's prediction frame (Section 2.1): a
// 256-entry four-way set-associative BTB whose entries are tagged with a
// thread id (to avoid predicting phantom branches for other threads),
// per-thread global history registers, and a 12-entry return stack per
// hardware context. The BTB and the direction tables are shared by all
// threads — the paper deliberately does not replicate or resize them for
// SMT — so a multiprogrammed workload degrades them realistically as
// threads are added.
//
// What varies by registered name is the conditional-direction engine and
// the return-prediction mode, following the SCOoOTER feature menu:
//
//   - "gshare" (the default): a 2K x 2-bit PHT indexed by the XOR of the
//     low PC bits and the per-thread history register (McFarling), exactly
//     the paper's baseline — the default configuration's behaviour and
//     fingerprint are byte-identical to the pre-registry implementation;
//   - "smiths": the same 2-bit counters indexed by PC alone (Smith 1981);
//   - "static": backward-taken/forward-not-taken, using a non-mutating BTB
//     peek for the target comparison (an unknown target predicts not-taken);
//   - "gskewed": three 2-bit banks with skewed indices and majority vote
//     (Michaud/Seznec/Uhlig);
//   - "none": always not-taken;
//   - "perfect": the oracle — the core bypasses prediction entirely.
//
// Each direction engine also registers ".rasonly" (return stack without
// BTB fallback) and ".noret" (no return prediction) variants. A custom
// predictor is a DirEngine: Register puts it in the standard frame under a
// name.
//
// Every predictor reports a per-prediction confidence estimate; the core's
// variable-fetch-rate mode (core.Config.VarFetchRate) throttles a thread's
// fetch allotment while low-confidence branches are in flight.
package branch

import (
	"fmt"

	"repro/internal/fingerprint"
)

// Built-in predictor names. Composable return-stack variants append
// ".rasonly" or ".noret" (e.g. "gshare.noret").
const (
	Gshare  = "gshare"
	Smiths  = "smiths"
	Static  = "static"
	Gskewed = "gskewed"
	None    = "none"
	Perfect = "perfect"

	// DefaultPredictor resolves the empty Config.Predictor name: the
	// paper's gshare scheme.
	DefaultPredictor = Gshare
)

// Config sizes the prediction hardware and names the predictor. The zero
// value is not useful; use DefaultConfig.
type Config struct {
	BTBEntries int  // total BTB entries (256 in the paper)
	BTBAssoc   int  // BTB associativity (4-way in the paper)
	PHTEntries int  // direction-table entries per bank (2048 in the paper)
	RASEntries int  // return-stack entries per thread (12 in the paper)
	HistoryLen int  // global history bits used in the gshare index
	Threads    int  // hardware contexts (sizes the per-thread state)
	Perfect    bool // oracle prediction: every branch and jump predicted correctly

	// Predictor names a registered predictor; empty selects the
	// default (gshare), keeping the configuration's fingerprint — and
	// every cached result keyed by it — identical to the pre-registry
	// encoding (see CanonicalFingerprint).
	Predictor string
}

// DefaultConfig returns the paper's baseline predictor configuration for the
// given number of hardware contexts.
func DefaultConfig(threads int) Config {
	return Config{
		BTBEntries: 256,
		BTBAssoc:   4,
		PHTEntries: 2048,
		RASEntries: 12,
		HistoryLen: 11, // log2(PHTEntries)
		Threads:    threads,
	}
}

// Upper bounds on the tables, whose sizes are allocations: a configuration
// can arrive from the network. This is finiteness, not policy.
const (
	maxEntries = 1 << 20 // BTB and direction tables (the paper: 256 and 2048)
	maxRAS     = 1 << 10 // return-stack entries per thread (the paper: 12)
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Threads < 1 {
		return fmt.Errorf("branch: Threads = %d, want >= 1", c.Threads)
	}
	if c.BTBEntries > maxEntries || c.PHTEntries > maxEntries || c.RASEntries > maxRAS {
		return fmt.Errorf("branch: BTBEntries %d / PHTEntries %d / RASEntries %d, want <= %d / %d / %d",
			c.BTBEntries, c.PHTEntries, c.RASEntries, maxEntries, maxEntries, maxRAS)
	}
	if c.BTBEntries < c.BTBAssoc || c.BTBAssoc < 1 {
		return fmt.Errorf("branch: BTB %d entries / %d-way invalid", c.BTBEntries, c.BTBAssoc)
	}
	if c.BTBEntries%c.BTBAssoc != 0 {
		return fmt.Errorf("branch: BTB entries %d not divisible by assoc %d", c.BTBEntries, c.BTBAssoc)
	}
	if sets := c.BTBEntries / c.BTBAssoc; sets&(sets-1) != 0 {
		return fmt.Errorf("branch: BTB set count %d not a power of two", sets)
	}
	if c.PHTEntries < 2 || c.PHTEntries&(c.PHTEntries-1) != 0 {
		return fmt.Errorf("branch: PHT entries %d not a power of two", c.PHTEntries)
	}
	if c.RASEntries < 1 {
		return fmt.Errorf("branch: RAS entries %d, want >= 1", c.RASEntries)
	}
	if c.HistoryLen < 0 || c.HistoryLen > 32 {
		return fmt.Errorf("branch: history length %d out of range", c.HistoryLen)
	}
	if c.HistoryLen > log2(c.PHTEntries) {
		// More history bits than index bits silently alias the PHT index:
		// the XOR folds the excess bits onto the low ones, so two histories
		// the predictor means to distinguish hit the same counter.
		return fmt.Errorf("branch: history length %d exceeds log2(PHT entries) = %d",
			c.HistoryLen, log2(c.PHTEntries))
	}
	if !Registered(c.Predictor) {
		return fmt.Errorf("branch: unknown predictor %q (registered: %v)", c.Predictor, Names())
	}
	return nil
}

// resolved returns the effective predictor name (empty resolves to the
// default).
func (c Config) resolved() string {
	if c.Predictor == "" {
		return DefaultPredictor
	}
	return c.Predictor
}

// Oracle reports whether the configuration asks for perfect prediction, in
// which case the core bypasses the predictor entirely.
func (c Config) Oracle() bool {
	return c.Perfect || c.resolved() == Perfect
}

// CanonicalFingerprint keeps Config's canonical encoding stable as the
// subsystem grows: the Predictor field renders only when it names a
// non-default predictor, so every fingerprint computed before predictors
// became pluggable — and every cache key derived from one — remains valid,
// while any other predictor content-addresses the configuration it
// actually runs.
func (c Config) CanonicalFingerprint() string {
	if c.Predictor == DefaultPredictor {
		c.Predictor = "" // the default encodes as absent, like the empty name
	}
	return fingerprint.Struct(c, "Predictor")
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
