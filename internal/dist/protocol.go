// Package dist distributes experiment sweeps across processes: a
// coordinator queues a sweep's content-addressed jobs, and live workers
// and the coordinator's own local slots lease them from that one queue;
// workers simulate theirs and stream snapshots and results back over HTTP.
//
// The unit of distribution is the experiment engine's Job — a
// deterministic, content-addressed simulation — so distribution is
// invisible in the output: a sweep executed across N worker nodes
// produces canonical result JSON byte-identical to the same sweep run in
// one process. Three properties carry that guarantee end to end:
//
//  1. Workers run the exact same measurement kernel (exp.SimulateEnv) the
//     local runner runs, on a payload that carries everything the kernel
//     reads: config, rotation, seed, budgets.
//  2. smt.Config and smt.Results survive their JSON round-trip exactly
//     (policy names are strings; Go's float encoding round-trips).
//  3. Aggregation stays on the coordinator and walks jobs in index order,
//     exactly as a local run does, whatever order results arrive in.
//
// The protocol is pull-based. A worker names itself (a random hex id) and
// says everything the coordinator keeps about it in one idempotent
// message, a beat (PUT /v1/workers/{id}: name, slots, build, the leases it
// holds), which it sends to join, every third of a lease TTL, and to
// rejoin a coordinator that forgot it. Between beats it long-polls for as
// many jobs as it has free slots (POST /v1/work/next), posts interval
// snapshots (POST /v1/work/snapshot) and each finished job's result (POST
// /v1/work/result), and says goodbye with DELETE /v1/workers/{id}. A poll
// that finds several slots free leases several jobs in one round trip,
// and a worker never holds a job it cannot start, so the backlog stays
// visible in the coordinator's queue. A local slot leases from the same
// queue in-process, so a job goes to whichever slot is free first. Only a
// beat keeps a worker alive or renews a lease, and only a lease the beat
// lists: a worker that stops beating — crashed, partitioned, killed — has
// its in-flight jobs requeued, a lease its beats do not list (a poll reply
// lost on the way) lapses and requeues the same way, a draining worker
// beats zero slots so it offers no capacity, and a job out of
// remote attempts is left to the local slots. With no local slots, queued
// jobs wait for a worker.
// Identical jobs never execute twice across the cluster: sweeps dedupe
// through the coordinator's singleflight cache before dispatch. Warmup
// checkpoints travel through the coordinator's content-addressed store
// (GET/PUT /v1/cache/{key}, "snap:" keys), so one worker's cold warmup is
// every worker's restore.
package dist

import (
	"runtime/debug"

	"repro/internal/exp"
	"repro/smt"
)

// BuildID identifies this binary for protocol compatibility: the VCS
// revision when the build was stamped with one, else the module version,
// else "" (un-stamped dev and test binaries). The byte-identity guarantee
// only holds when coordinator and workers run the same simulator, so
// a beat is refused when the worker's known build differs from the
// coordinator's known build; unknown builds are accepted (they cannot be
// verified, and in-process test clusters share the binary anyway).
func BuildID() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return ""
}

// JobPayload is the wire form of one simulation job: everything a worker
// needs to reproduce exactly what the coordinator's local runner would
// compute.
type JobPayload struct {
	Config   smt.Config `json:"config"`
	Run      int        `json:"run"`      // benchmark rotation index
	Seed     uint64     `json:"seed"`     // derived workload seed (exp.JobSeed applied)
	Warmup   int64      `json:"warmup"`   // committed instructions before measurement, per thread
	Measure  int64      `json:"measure"`  // measured committed instructions, per thread
	Interval int64      `json:"interval"` // snapshot cadence in cycles; 0 = no streaming
}

// Exec runs one job payload to completion, forwarding interval snapshots
// to onSnap when the payload asks for them (onSnap may be nil).
type Exec func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results

// SimulateJob is the canonical Exec: the experiment engine's own
// measurement kernel applied to the payload, under env's warmup
// checkpoints and trace replay when it carries any. The coordinator's
// local slots and every worker default to it, which is what makes
// distributed results byte-identical to local ones — the kernel commits
// the same bits under every env.
func SimulateJob(env exp.WarmEnv) Exec {
	return func(p JobPayload, onSnap func(smt.Snapshot)) smt.Results {
		return exp.SimulateEnv(p.Config, p.Run, p.Seed, exp.Opts{Runs: 1, Warmup: p.Warmup, Measure: p.Measure, Seed: p.Seed}, p.Interval, onSnap, env)
	}
}

// Beat is a worker's whole state, sent as PUT /v1/workers/{id} to join,
// to stay alive and to rejoin: the coordinator keeps what the last beat
// said. A beat with Slots > 0 from an unknown id joins the worker; a beat
// renews exactly the listed leases that the coordinator holds for that
// id, from receiving the lease until its result post returns. A lease
// granted in a poll reply the worker never received is not listed, so it
// lapses after one lease TTL and is requeued.
type Beat struct {
	Name  string   `json:"name"`            // display name, e.g. the worker's hostname
	Slots int      `json:"slots"`           // concurrent simulations offered; 0 while draining
	Build string   `json:"build,omitempty"` // worker BuildID; mismatch with a known coordinator build is refused
	Tasks []string `json:"tasks"`           // task ids the worker holds
}

// BeatResponse carries the coordinator's protocol timings.
type BeatResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"` // beat at least this often / 3
	PollWaitMS int64 `json:"poll_wait_ms"` // how long /v1/work/next may hold
}

// PollRequest asks for work; the call long-polls up to the coordinator's
// poll wait and returns 204 when no work arrived. Max is how many jobs
// the worker can start right now (its free slots); the coordinator leases
// up to that many in one response, so one HTTP round trip amortizes
// across a batch instead of costing a full hop per job — on small jobs
// the round trip otherwise dominates and a local run beats the cluster.
// Max <= 0 is treated as 1 (the pre-batching protocol).
type PollRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max,omitempty"`
}

// Assignment hands one leased job to a worker.
type Assignment struct {
	TaskID string     `json:"task_id"`
	Job    JobPayload `json:"job"`
}

// Batch is the poll response: one or more leased assignments.
type Batch struct {
	Assignments []Assignment `json:"assignments"`
}

// ResultsRequest reports one finished job; the worker posts it as the job
// finishes.
type ResultsRequest struct {
	WorkerID string      `json:"worker_id"`
	TaskID   string      `json:"task_id"`
	Results  smt.Results `json:"results"`
}

// ResultsResponse acknowledges a result: Accepted reports whether it
// completed a live dispatch (otherwise it was stale — a requeued or
// cancelled task — and discarded; determinism makes every copy
// interchangeable).
type ResultsResponse struct {
	Accepted bool `json:"accepted"`
}

// SnapshotRequest streams one interval snapshot of a running job back to
// the coordinator, which forwards it to the sweep's observer.
type SnapshotRequest struct {
	WorkerID string       `json:"worker_id"`
	TaskID   string       `json:"task_id"`
	Snapshot smt.Snapshot `json:"snapshot"`
}

// WorkerInfo describes one live worker in GET /v1/workers.
type WorkerInfo struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Slots     int    `json:"slots"`
	Running   int    `json:"running"`
	Completed int64  `json:"completed"`
	LastSeen  string `json:"last_seen"` // RFC 3339
}

// Status is the coordinator's aggregate view: GET /v1/workers wraps the
// worker list with scheduler counters so one call answers "is the cluster
// healthy and is work flowing".
type Status struct {
	Workers    []WorkerInfo `json:"workers"`
	Capacity   int          `json:"capacity"`    // sum of live worker slots
	Pending    int          `json:"pending"`     // queued, unassigned jobs
	Assigned   int          `json:"assigned"`    // leased to a worker right now
	Dispatched int64        `json:"dispatched"`  // jobs ever handed to the scheduler
	RemoteDone int64        `json:"remote_done"` // completed by a worker
	LocalDone  int64        `json:"local_done"`  // completed by a coordinator local slot
	Requeues   int64        `json:"requeues"`    // lease expiries / worker deaths

	// Lease latency: total time granted leases spent in the pending queue.
	// mean wait = LeaseWaitSecondsTotal / Leases; a rising mean with idle
	// capacity means the fleet is leasing too slowly, a rising mean at full
	// capacity means the fleet is too small.
	Leases                int64   `json:"leases"`
	LeaseWaitSecondsTotal float64 `json:"lease_wait_seconds_total"`

	// Autoscale is the queued-jobs-vs-capacity signal a deployment layer
	// watches to size the worker fleet.
	Autoscale Autoscale `json:"autoscale"`

	// Breakers is always empty and so never on the wire: nothing fills it.
	// It stays only because the benchmark harness still reads it, and goes
	// with ROADMAP item 3.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
}

// BreakerStatus is Status.Breakers' element, reduced to the one field
// anything reads.
type BreakerStatus struct {
	Opens int64 `json:"opens"`
}

// Autoscale compares the backlog against fleet capacity in units a
// deployment layer can act on directly: WantedSlots is how many more
// simulation slots would drain the queue right now (scale up when it
// stays positive), and Saturation is (assigned+pending)/capacity — below
// 1.0 with WantedSlots 0 for a sustained period means the fleet can
// shrink.
type Autoscale struct {
	QueuedJobs  int     `json:"queued_jobs"`  // pending, unassigned
	Capacity    int     `json:"capacity"`     // total fleet slots
	FreeSlots   int     `json:"free_slots"`   // capacity minus leased jobs
	WantedSlots int     `json:"wanted_slots"` // max(0, queued - free): slots to add to drain the queue
	Saturation  float64 `json:"saturation"`   // (assigned+queued)/capacity; 0 when capacity is 0
}
