// Package core implements the cycle-level simultaneous multithreading
// processor of the paper: an 8-wide out-of-order superscalar extended with
// multiple hardware contexts, per-thread fetch with selectable partitioning
// and thread-choice policies, shared instruction queues fed through register
// renaming, optimistic issue of load-dependent instructions, wrong-path
// execution, and per-thread squash and retirement.
//
// One Processor simulates one machine configuration. Step advances a single
// cycle; Run advances until an instruction or cycle budget is reached. The
// same core simulates both the paper's SMT pipeline (Figure 2b) and the
// baseline superscalar pipeline (Figure 2a) — the difference is two pipe
// stages and the derived penalties, controlled by Config.SMTPipeline.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/branch"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/rename"
)

// SpecMode selects the speculative-execution restrictions studied in
// Section 7 ("Speculative Execution").
type SpecMode uint8

// Speculation modes.
const (
	// SpecFull is the paper's default: instructions issue regardless of
	// unresolved earlier branches, so wrong-path instructions can issue.
	SpecFull SpecMode = iota
	// SpecNoPassBranch prevents instructions from issuing before an earlier
	// unresolved branch of the same thread ("preventing instructions from
	// passing branches").
	SpecNoPassBranch
	// SpecNoWrongPath guarantees no wrong-path instruction issues by
	// delaying instructions four cycles after every preceding branch of
	// the thread issues, resolved or not.
	SpecNoWrongPath
)

var specNames = [...]string{"FULL", "NO_PASS_BRANCH", "NO_WRONG_PATH"}

// String names the mode.
func (m SpecMode) String() string {
	if int(m) < len(specNames) {
		return specNames[m]
	}
	return fmt.Sprintf("spec(%d)", uint8(m))
}

// Config describes one machine. DefaultConfig returns the paper's baseline
// SMT machine; Superscalar derives the unmodified-superscalar baseline.
type Config struct {
	Threads int

	// SMTPipeline selects the 9-stage pipeline of Figure 2b (two register
	// read stages, 7-cycle mispredict penalty). When false the core models
	// the conventional superscalar pipeline of Figure 2a.
	SMTPipeline bool

	// Fetch unit: the paper's alg.num1.num2 notation maps to
	// (FetchPolicy, FetchThreads, FetchPerThread). FetchPolicy names a
	// registered fetch policy (built-in or caller-registered via
	// policy.RegisterFetch / smt.RegisterFetchPolicy); Validate rejects
	// names with no registration.
	FetchPolicy    policy.FetchAlg
	FetchThreads   int  // threads fetched per cycle (num1)
	FetchPerThread int  // max instructions per thread per cycle (num2)
	FetchTotal     int  // max instructions fetched per cycle (8; 16 in §7)
	ITAG           bool // early I-cache tag lookup (Section 5.3)

	// Instruction queues.
	IQSize int  // searchable entries per queue (32)
	BigQ   bool // double-size buffered queues, searchable window IQSize (§5.3)

	// Issue. IssuePolicy names a registered issue policy.
	IssuePolicy policy.IssueAlg
	IssueWidth  int  // max instructions issued per cycle (9)
	IntUnits    int  // integer functional units (6)
	LdStUnits   int  // integer units that can also do loads/stores (4)
	FPUnits     int  // floating-point units (3)
	InfiniteFUs bool // §7: remove all issue-bandwidth and FU limits

	SpecMode SpecMode

	// Commit.
	CommitWidth int // instructions retired per cycle, all threads (8)

	// Memory disambiguation: loads conflict with earlier unexecuted stores
	// when the low DisambigBits of their addresses match (10 in the paper).
	DisambigBits int

	// The nested subsystems. Their per-thread state is sized by Threads;
	// perfect branch prediction (Section 7) is Branch.Predictor "perfect".
	Rename rename.Config
	Branch branch.Config
	Mem    mem.Config

	// VarFetchRate throttles each thread's per-cycle fetch allotment by its
	// count of in-flight low-confidence branches (FetchPerThread >> count,
	// floor 1), using the predictor's per-prediction confidence estimate.
	// Off by default.
	VarFetchRate bool
}

// DefaultConfig returns the paper's baseline SMT machine (Section 2.1) for
// the given number of hardware contexts, with the RR.1.8 fetch scheme of
// Section 4.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:        threads,
		SMTPipeline:    true,
		FetchPolicy:    policy.RR,
		FetchThreads:   1,
		FetchPerThread: 8,
		FetchTotal:     8,
		IQSize:         32,
		IssuePolicy:    policy.OldestFirst,
		IssueWidth:     9,
		IntUnits:       6,
		LdStUnits:      4,
		FPUnits:        3,
		CommitWidth:    8,
		DisambigBits:   10,
		Rename:         rename.Config{ExcessRegs: 100},
		Branch:         branch.DefaultConfig(),
		Mem:            mem.DefaultConfig(),
	}
}

// Superscalar returns the unmodified wide-issue superscalar the paper
// compares against: the same execution resources with the shorter pipeline
// of Figure 2a and a single hardware context.
func Superscalar() Config {
	c := DefaultConfig(1)
	c.SMTPipeline = false
	return c
}

// MaxThreads is the most hardware contexts a machine may have: the
// fetch-order age key (dyn.computeAge) gives the thread six bits, and a
// seventh would carry into the fetch cycle above it.
const MaxThreads = 64

// Upper bounds on what New allocates from a Config. A Config can arrive
// from the network (smtd's inline grids), so every field that sizes an
// allocation must be finite; these are generous multiples of the paper's
// machine, not policy. The nested configs bound their own fields.
const (
	maxIQSize       = 1 << 12 // the paper's queues search 32 entries, 64 in Section 7
	maxEventHorizon = 1 << 15 // the default machine's event ring spans 1456 cycles
)

// Validate reports configuration errors, including a machine the
// simulator's fixed-width structures cannot hold.
func (c Config) Validate() error {
	switch {
	case c.Threads < 1 || c.Threads > MaxThreads:
		return fmt.Errorf("core: Threads = %d, want 1..%d", c.Threads, MaxThreads)
	case c.FetchThreads < 1 || c.FetchThreads > c.Threads:
		return fmt.Errorf("core: FetchThreads = %d with %d threads", c.FetchThreads, c.Threads)
	case c.FetchPerThread < 1 || c.FetchTotal < 1:
		return fmt.Errorf("core: fetch widths must be positive")
	case c.IQSize < 1 || c.IQSize > maxIQSize:
		return fmt.Errorf("core: IQSize = %d, want 1..%d", c.IQSize, maxIQSize)
	case c.IssueWidth < 1 && !c.InfiniteFUs:
		return fmt.Errorf("core: IssueWidth = %d", c.IssueWidth)
	case c.IntUnits < 1 || c.FPUnits < 0 || c.LdStUnits < 1 || c.LdStUnits > c.IntUnits:
		return fmt.Errorf("core: functional unit counts invalid (%d int / %d ld-st / %d fp)",
			c.IntUnits, c.LdStUnits, c.FPUnits)
	case c.CommitWidth < 1:
		return fmt.Errorf("core: CommitWidth = %d", c.CommitWidth)
	case c.DisambigBits < 1 || c.DisambigBits > 48:
		return fmt.Errorf("core: DisambigBits = %d", c.DisambigBits)
	case c.SpecMode > SpecNoWrongPath:
		return fmt.Errorf("core: SpecMode = %d, want 0..%d", c.SpecMode, SpecNoWrongPath)
	}
	if _, err := c.FetchPolicy.Resolve(); err != nil {
		return err
	}
	if _, err := c.IssuePolicy.Resolve(); err != nil {
		return err
	}
	if err := c.Rename.Validate(c.Threads); err != nil {
		return err
	}
	if err := c.Branch.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	// Mem bounds each latency; the event ring is sized from their sum.
	if h := c.eventHorizon(); h > maxEventHorizon {
		return fmt.Errorf("core: Mem latencies put an event %d cycles ahead, want <= %d", h, maxEventHorizon)
	}
	return nil
}

// Fingerprint returns the configuration's content address: the first 16
// bytes, hex-encoded, of SHA-256 over the config's JSON, the form it
// already travels in to workers and arrives in from smtd's inline grids.
// It is the one place that decides "same machine": an empty predictor name
// runs the default predictor, so it is hashed as that name, and an empty
// fetch or issue policy already marshals as its default's name. Two
// configs with equal fingerprints produce identical simulations for the
// same workload, which is what lets the result cache reuse one's results
// for the other. The address follows the JSON, field order included:
// reordering, renaming, adding or removing a field moves every address,
// and the frozen fingerprint tests in core and smt catch that drift.
func (c Config) Fingerprint() string {
	if c.Branch.Predictor == "" {
		c.Branch.Predictor = branch.DefaultPredictor
	}
	raw, err := json.Marshal(c)
	if err != nil {
		panic(err) // unreachable: a Config is ints, bools and strings
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// FetchName renders the paper's alg.num1.num2 notation for this config
// (e.g. "ICOUNT.2.8").
func (c Config) FetchName() string {
	return fmt.Sprintf("%s.%d.%d", c.FetchPolicy, c.FetchThreads, c.FetchPerThread)
}

// execOffset returns the issue-to-execute distance in cycles: two register
// read stages for the SMT pipeline, one for the superscalar.
func (c *Config) execOffset() int64 {
	if c.SMTPipeline {
		return 3
	}
	return 2
}

// commitDelay returns the distance from the end of execution to commit
// eligibility (RegWrite + Commit for the SMT pipeline; Commit alone for the
// superscalar).
func (c *Config) commitDelay() int64 {
	if c.SMTPipeline {
		return 2
	}
	return 1
}

// misfetchPenalty returns the fetch bubble after a decode-detected target
// misfetch: 2 cycles, 3 with the ITAG extra pipe stage.
func (c *Config) misfetchPenalty() int64 {
	if c.ITAG {
		return 3
	}
	return 2
}

// redirectBubble returns extra redirect delay from the ITAG front stage.
func (c *Config) redirectBubble() int64 {
	if c.ITAG {
		return 1
	}
	return 0
}

// eventHorizon estimates how far ahead of the current cycle the machine
// can schedule an event: the longest memory round trip the hierarchy can
// quote (a TLB walk plus a fill chain to memory with every per-level bus,
// fill, and port charge), padded generously for bus and MSHR queueing
// pile-ups the static walk cannot see. The event ring is sized from it at
// construction; an overrun grows the ring instead of losing events.
func (c *Config) eventHorizon() int64 {
	h := int64(c.Mem.ITLB.MissPenalty)
	if d := int64(c.Mem.DTLB.MissPenalty); d > h {
		h = d
	}
	for l := mem.Level(0); l < mem.NumLevels; l++ {
		cc := c.Mem.Caches[l]
		h += int64(cc.LatencyToNext + 2*cc.TransferTime + cc.FillTime + cc.AccessEvery)
	}
	h += int64(c.Mem.MemLatency)
	h += c.execOffset() + c.commitDelay() + 16
	return h * 4
}
