//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/smt"
)

// The paper's two published headline values (ROADMAP.md quotes them; the
// repository holds no other reference data): ICOUNT.2.8 at 8 threads
// reaches 5.4 IPC, 2.5x the unmodified superscalar.
const (
	paperICountIPC = 5.4
	paperSpeedup   = 2.5
)

// paperErrors sets the two model-error metrics from the simulated IPCs.
func paperErrors(e2e *metricSet, icountIPC, superscalarIPC float64) {
	e2e.set("ipc_err_vs_paper", math.Abs(icountIPC-paperICountIPC)/paperICountIPC)
	e2e.set("speedup_err_vs_paper", math.Abs(ratio(icountIPC, superscalarIPC)-paperSpeedup)/paperSpeedup)
}

// runCoreMatrix is the core_matrix workload: in-process, no service. Six
// pinned machines are built, warmed and checkpointed (set-up), then stepped
// in interleaved passes, one timed Run of coreChunk x T instructions per
// machine per pass. A machine that has run coreMinChunks chunks is replaced
// by a fresh one restored from its post-warmup checkpoint, so every cycle
// of passes repeats the same simulated work: the simulated metrics are
// exact for a seed, later cycles only add timing samples until the window
// closes, and no machine runs deeper than the seeds were screened for.
// Host speed is the per-machine median over passes, summed over the
// matrix, because single timings on a shared 2-core host do not repeat
// within a tenth.
func runCoreMatrix(ctx context.Context, e *env) error {
	z := e.z
	seed := coreSeed
	type state struct {
		name       string
		cfg        smt.Config
		threads    int64
		sim        *smt.Simulator
		warm       []byte      // checkpoint after warmup
		chunks     int         // chunks run on the current instance
		last       smt.Results // cumulative results after the latest chunk
		fixed      []byte      // encoded results after coreMinChunks chunks
		res        smt.Results // the same, decoded
		nsPerCycle []float64
		chunkSecs  []float64
		mallocs    uint64
		cycles     int64
	}
	t0 := time.Now()
	ms := make([]*state, len(coreMatrix))
	for i, m := range coreMatrix {
		st := &state{name: m.name, cfg: m.cfg()}
		st.threads = int64(st.cfg.Threads)
		var err error
		e.rec.timed(e.root, "", "smt.new", func() {
			st.sim, err = smt.New(st.cfg, smt.WorkloadMix(st.cfg.Threads, 0, seed))
		})
		if e.ops.check(err) != nil {
			return err
		}
		e.rec.timed(e.root, "", "smt.warmup", func() {
			if _, err = runGuarded(ctx, st.sim, z.coreWarmup*st.threads); err == nil {
				st.sim.Warmup(0) // reset the statistics, as Warmup(n) does after its n commits
			}
		})
		if e.ops.check(err) != nil {
			return fmt.Errorf("%s warmup: %w", m.name, err)
		}
		e.rec.timed(e.root, "", "smt.snapshot_save", func() { st.warm, err = st.sim.SaveSnapshot() })
		if e.ops.check(err) != nil {
			return err
		}
		ms[i] = st
	}
	e.e2e.set("setup_s", time.Since(t0).Seconds())

	start := time.Now()
	var passMs []float64
	for pass := 0; pass < z.coreMinChunks || time.Since(start) < e.window(); pass++ {
		var passSecs float64
		for _, i := range e.rng.Perm(len(ms)) {
			st := ms[i]
			if st.chunks == z.coreMinChunks {
				var err error
				e.rec.timed(e.root, st.name, "smt.snapshot_restore", func() {
					if st.sim, err = smt.New(st.cfg, smt.WorkloadMix(st.cfg.Threads, 0, seed)); err == nil {
						err = st.sim.RestoreSnapshot(st.warm)
					}
				})
				if e.ops.check(err) != nil {
					return err
				}
				st.chunks, st.last = 0, smt.Results{}
			}
			var mem0, mem1 runtime.MemStats
			if e.rec != nil {
				runtime.ReadMemStats(&mem0)
			}
			var res smt.Results
			var err error
			d := e.rec.timed(e.root, st.name, "core.run", func() { res, err = runGuarded(ctx, st.sim, z.coreChunk*st.threads) })
			if e.rec != nil {
				runtime.ReadMemStats(&mem1)
				st.mallocs += mem1.Mallocs - mem0.Mallocs
			}
			if e.ops.check(err) != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
			cycles := res.Cycles - st.last.Cycles
			st.last = res
			st.chunks++
			st.cycles += cycles
			st.nsPerCycle = append(st.nsPerCycle, float64(d.Nanoseconds())/float64(cycles))
			st.chunkSecs = append(st.chunkSecs, d.Seconds())
			passSecs += d.Seconds()
			if st.chunks == z.coreMinChunks {
				// The fixed work is done: record it the first time, and check
				// that every restored instance repeats it bit for bit.
				enc, err := json.Marshal(res)
				if err == nil && st.fixed != nil && !bytes.Equal(enc, st.fixed) {
					err = fmt.Errorf("%s: a machine restored from its checkpoint diverged from the original", st.name)
				}
				if e.ops.check(err) != nil {
					return err
				}
				st.fixed, st.res = enc, res
			}
		}
		passMs = append(passMs, passSecs*1e3)
	}

	var cycles, instr, secs, chunkSecs, allocsMax float64
	byName := map[string]smt.Results{}
	for _, st := range ms {
		byName[st.name] = st.res
		med := median(st.nsPerCycle)
		cycles += float64(st.res.Cycles)
		instr += float64(st.res.Committed)
		secs += float64(st.res.Cycles) * med / 1e9
		chunkSecs += median(st.chunkSecs)
		e.layer.set("core."+st.name+".ns_per_cycle", med)
		e.layer.set("core."+st.name+".ipc", st.res.IPC)
		allocsMax = max(allocsMax, float64(st.mallocs)/float64(st.cycles))
		e.ops.check(fetchSlotsSumToOne(st.name, st.res))
	}
	e.layer.set("core.allocs_per_cycle_max", allocsMax)
	e.e2e.set("sim_kcycles_per_s", cycles/secs/1e3)
	e.e2e.set("sim_kinstr_per_s", instr/secs/1e3)
	e.e2e.set("jobs_per_s", float64(len(ms))/chunkSecs)
	e.e2e.set("req_p50_ms", median(passMs))
	paperErrors(e.e2e, byName["icount28x8"].IPC, byName["superscalar"].IPC)
	modelLayers(e.layer, byName["icount28x8"])

	e.ops.check(deterministic(icount28(8), seed, z.coreChunk))
	rss, err := vmHWM(os.Getpid())
	if e.ops.check(err) != nil {
		return err
	}
	e.e2e.set("peak_rss_mb", rss)
	return nil
}

// fetchSlotsSumToOne checks the slot accounting identity: every cycle
// lands in exactly one of the five fetch buckets.
func fetchSlotsSumToOne(name string, r smt.Results) error {
	s := r.FetchCyclesFrac + r.FetchLostBackPressure + r.FetchLostNoThread + r.FetchLostIMiss + r.FetchLostBankConflict
	if math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("%s: fetch slot fractions sum to %v, want 1", name, s)
	}
	return nil
}

// modelLayers emits the simulated (exact) per-component statistics of one
// machine, the inputs to the two model-error metrics.
func modelLayers(m *metricSet, r smt.Results) {
	m.set("core.fetch_cycles_frac", r.FetchCyclesFrac)
	m.set("core.fetch_lost_back_pressure", r.FetchLostBackPressure)
	m.set("core.fetch_lost_no_thread", r.FetchLostNoThread)
	m.set("core.fetch_lost_imiss", r.FetchLostIMiss)
	m.set("core.fetch_lost_bank_conflict", r.FetchLostBankConflict)
	m.set("core.wrong_path_fetched", r.WrongPathFetched)
	m.set("core.wrong_path_issued", r.WrongPathIssued)
	m.set("core.optimistic_squash", r.OptimisticSquash)
	m.set("core.useful_fetch_per_cycle", r.UsefulFetchPerCyc)
	m.set("mem.icache_miss_rate", r.Caches[0].MissRate)
	m.set("mem.dcache_miss_rate", r.Caches[1].MissRate)
	m.set("mem.l2_miss_rate", r.Caches[2].MissRate)
	m.set("mem.l3_miss_rate", r.Caches[3].MissRate)
	m.set("branch.cond_mispredict_rate", r.BranchMispredict)
	m.set("branch.jump_mispredict_rate", r.JumpMispredict)
	m.set("iq.int_full_frac", r.IntIQFull)
	m.set("iq.fp_full_frac", r.FPIQFull)
	m.set("iq.avg_pop", r.AvgQueuePop)
	m.set("rename.out_of_regs_frac", r.OutOfRegisters)
}

// deterministic builds the same machine twice and checks that both commit
// the same bits: the property every cached, restored and distributed
// result in the other workloads leans on.
func deterministic(cfg smt.Config, seed uint64, perThread int64) error {
	var enc [2][]byte
	for i := range enc {
		sim, err := smt.New(cfg, smt.WorkloadMix(cfg.Threads, 0, seed))
		if err != nil {
			return err
		}
		if enc[i], err = json.Marshal(sim.Run(perThread * int64(cfg.Threads))); err != nil {
			return err
		}
	}
	if string(enc[0]) != string(enc[1]) {
		return fmt.Errorf("two runs of %s at seed %d diverged", cfg.FetchName(), seed)
	}
	return nil
}
