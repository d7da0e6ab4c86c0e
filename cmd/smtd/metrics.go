package main

import (
	"bytes"
	"fmt"
	"net/http"

	"repro/internal/cache"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (hand-rolled: the format is a dozen lines of fmt and the repo
// takes no dependencies). One scrape answers the operational questions a
// coordinator raises: per-tier cache hit/miss/eviction rates, lease
// latency, queue depth, per-worker capacity — and the autoscale signal
// (smtd_autoscale_wanted_slots, saturation) that a deployment layer
// alerts and scales on.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer

	// The two tiered caches, then the checkpoint store's own traffic and the
	// trace cache.
	writeStackMetrics(&b, "smtd_cache", s.results.Stats())
	writeStackMetrics(&b, "smtd_snapshot", s.snaps.Stats())
	ss := s.snapshots.Stats()
	counter(&b, "smtd_snapshot_hits_total", "Warmup checkpoints restored instead of re-simulated.", float64(ss.Hits))
	counter(&b, "smtd_snapshot_misses_total", "Warmup checkpoint probes that ran cold.", float64(ss.Misses))
	counter(&b, "smtd_snapshot_puts_total", "Warmup checkpoints stored after cold warmups.", float64(ss.Puts))
	counter(&b, "smtd_snapshot_bytes_loaded_total", "Snapshot bytes served by checkpoint restores.", float64(ss.BytesLoaded))
	counter(&b, "smtd_snapshot_bytes_stored_total", "Snapshot bytes written by checkpoint fills.", float64(ss.BytesStored))
	ts := s.traces.Stats()
	counter(&b, "smtd_trace_builds_total", "Context traces pre-decoded: one per (benchmark, seed, hardware context), again when a longer one is asked for.", float64(ts.Builds))
	counter(&b, "smtd_trace_reuses_total", "Per-context trace lookups served by an existing shared trace.", float64(ts.Reuses))
	counter(&b, "smtd_trace_evictions_total", "Context traces evicted by the byte budget.", float64(ts.Evictions))
	gauge(&b, "smtd_trace_entries", "Context traces currently cached.", float64(ts.Entries))
	gauge(&b, "smtd_trace_bytes", "Bytes the cached context traces pin, their programs included.", float64(ts.Bytes))

	ps := s.plans.Stats()
	counter(&b, "smtd_sweep_plan_hits_total", "Sweep requests whose body was planned before: decode, validation and expansion skipped.", float64(ps.Hits))
	counter(&b, "smtd_sweep_plan_misses_total", "Sweep requests decoded, validated and expanded from their body.", float64(ps.Misses))
	gauge(&b, "smtd_sweep_plan_entries", "Request plans held in the sweep-plan memo.", float64(ps.Len))

	// Sweeps.
	s.mu.Lock()
	var running, done, failed int
	for _, sw := range s.sweeps {
		switch sw.state {
		case "running":
			running++
		case "done":
			done++
		case "failed":
			failed++
		}
	}
	jobsDone, sweepHits := s.jobsDone, s.cacheHits
	s.mu.Unlock()
	gauge(&b, "smtd_sweeps_running", "Sweeps currently executing.", float64(running))
	gauge(&b, "smtd_sweeps_done", "Finished sweeps retained in history.", float64(done))
	gauge(&b, "smtd_sweeps_failed", "Failed sweeps retained in history.", float64(failed))
	counter(&b, "smtd_sweep_jobs_done_total", "Jobs completed by every sweep since boot.", float64(jobsDone))
	counter(&b, "smtd_sweep_cache_hits_total", "Jobs served from cache across every sweep since boot.", float64(sweepHits))

	// Scheduler, fleet, and the autoscale signal.
	st := s.coord.Stats()
	gauge(&b, "smtd_dist_queue_depth", "Dispatched jobs queued and unassigned.", float64(st.Pending))
	gauge(&b, "smtd_dist_assigned", "Jobs currently leased to workers.", float64(st.Assigned))
	gauge(&b, "smtd_dist_capacity", "Total simulation slots offered by live workers.", float64(st.Capacity))
	counter(&b, "smtd_dist_dispatched_total", "Jobs ever handed to the scheduler.", float64(st.Dispatched))
	counter(&b, "smtd_dist_remote_done_total", "Jobs completed by workers.", float64(st.RemoteDone))
	counter(&b, "smtd_dist_local_done_total", "Jobs completed by the coordinator's local slots.", float64(st.LocalDone))
	counter(&b, "smtd_dist_requeues_total", "Lease expiries and worker-death requeues.", float64(st.Requeues))
	counter(&b, "smtd_dist_leases_total", "Job leases ever granted to workers.", float64(st.Leases))
	counter(&b, "smtd_dist_lease_wait_seconds_total", "Total time granted leases spent queued; divide by smtd_dist_leases_total for the mean.", st.LeaseWaitSecondsTotal)
	gauge(&b, "smtd_autoscale_free_slots", "Fleet slots not currently leased.", float64(st.Autoscale.FreeSlots))
	gauge(&b, "smtd_autoscale_wanted_slots", "Slots to add to drain the queue now; scale up while this stays positive.", float64(st.Autoscale.WantedSlots))
	gauge(&b, "smtd_autoscale_saturation", "(assigned+queued)/capacity; sustained < 1 with 0 wanted slots means the fleet can shrink.", st.Autoscale.Saturation)

	// Per-worker fleet capacity. %q quoting matches the exposition
	// format's label escaping (backslash, quote, newline).
	fmt.Fprintf(&b, "# HELP smtd_worker_slots Simulation slots offered by one worker.\n# TYPE smtd_worker_slots gauge\n")
	for _, wk := range st.Workers {
		fmt.Fprintf(&b, "smtd_worker_slots{worker=%q,id=%q} %d\n", wk.Name, wk.ID, wk.Slots)
	}
	fmt.Fprintf(&b, "# HELP smtd_worker_running Jobs one worker is running right now.\n# TYPE smtd_worker_running gauge\n")
	for _, wk := range st.Workers {
		fmt.Fprintf(&b, "smtd_worker_running{worker=%q,id=%q} %d\n", wk.Name, wk.ID, wk.Running)
	}
	fmt.Fprintf(&b, "# HELP smtd_worker_completed_total Jobs one worker has completed.\n# TYPE smtd_worker_completed_total counter\n")
	for _, wk := range st.Workers {
		fmt.Fprintf(&b, "smtd_worker_completed_total{worker=%q,id=%q} %d\n", wk.Name, wk.ID, wk.Completed)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b.Bytes())
}

// writeStackMetrics emits one cache.Tiered's tiers under prefix
// (smtd_cache for results, smtd_snapshot for warmup checkpoints): the
// memory tier always, disk series only when that tier exists.
func writeStackMetrics(b *bytes.Buffer, prefix string, st cache.TieredStats) {
	m := st.Memory
	counter(b, prefix+"_memory_hits_total", "Memory-tier hits.", float64(m.Hits))
	counter(b, prefix+"_memory_misses_total", "Memory-tier misses.", float64(m.Misses))
	counter(b, prefix+"_memory_evictions_total", "Memory-tier LRU evictions.", float64(m.Evictions))
	gauge(b, prefix+"_memory_entries", "Entries held in the memory tier.", float64(m.Len))
	gauge(b, prefix+"_memory_capacity", "Memory-tier capacity (0 = unbounded).", float64(m.Cap))
	if d := st.Disk; d != nil {
		counter(b, prefix+"_disk_hits_total", "Disk-tier hits (memory misses served from disk).", float64(d.Hits))
		counter(b, prefix+"_disk_misses_total", "Disk-tier misses.", float64(d.Misses))
		counter(b, prefix+"_disk_corrupt_total", "Disk entry files that failed their checksum or decode on lookup (served as misses and removed).", float64(d.Corrupt))
	}
}

func counter(b *bytes.Buffer, name, help string, v float64) { metric(b, name, help, "counter", v) }
func gauge(b *bytes.Buffer, name, help string, v float64)   { metric(b, name, help, "gauge", v) }

func metric(b *bytes.Buffer, name, help, typ string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}
