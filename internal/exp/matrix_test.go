package exp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/snapshot"
	"repro/smt"
)

// matrixOpts are the budgets of every matrix row: one rotation, small
// enough that every row runs through every path in seconds.
var matrixOpts = exp.Opts{Runs: 1, Warmup: 1_000, Measure: 2_000, Seed: 1}

// workers is the pool size of the matrix's parallel sweeps.
const workers = 4

// A row is one machine of the matrix.
type row struct {
	name string
	cfg  smt.Config
}

// variantRows and pairRows are the matrix's machines: every core.Variants
// machine, and every fetch x issue policy pair as the x.2.8 scheme at 4
// threads. They are read as the test binary starts, before any test
// registers a strategy of its own, so the rows do not depend on which
// tests ran first.
var variantRows, pairRows = func() (variants, pairs []row) {
	for _, v := range core.Variants() {
		variants = append(variants, row{v.Name, v.Config})
	}
	fetches, issues := policy.FetchNames(), policy.IssueNames()
	sort.Strings(fetches)
	sort.Strings(issues)
	for _, f := range fetches {
		for _, is := range issues {
			cfg := exp.MustFetchScheme(4, f, 2, 8)
			cfg.IssuePolicy = policy.IssueAlg(is)
			pairs = append(pairs, row{f + "/" + is, cfg})
		}
	}
	return variants, pairs
}()

// simulate is the reference path: exp.Simulate for each job, nothing else.
type simulate struct{}

func (simulate) Dispatch(_ context.Context, j exp.Job, o exp.Opts, interval int64, onSnap func(smt.Snapshot)) (smt.Results, error) {
	return exp.Simulate(j.Spec.Config, j.Run, exp.JobSeed(o.Seed, j.Run), o, interval, onSnap), nil
}

// sweep is what one run of a row set produced.
type sweep struct {
	fps  []string // per row: resultsFingerprint of its Results
	body []byte   // the sweep's EncodeJSON bytes
	hits int      // jobs served from the runner's cache
}

// runSweep runs rows on r as one experiment, named after its golden-file
// section, with a point per row.
func runSweep(t *testing.T, section string, rows []row, r exp.Runner) sweep {
	t.Helper()
	specs := make([]exp.PointSpec, len(rows))
	for i, rw := range rows {
		specs[i] = exp.PointSpec{Series: section, Label: rw.name, Threads: rw.cfg.Threads, Config: rw.cfg}
	}
	e := exp.Experiment{
		Name:   section,
		Title:  "every row through one execution path",
		Shape:  exp.Shape{Series: 1, Points: len(specs)},
		Points: func() []exp.PointSpec { return specs },
	}
	out := sweep{fps: make([]string, len(rows))}
	var mu sync.Mutex
	r.OnJobDone = func(j exp.Job, res smt.Results, fromCache bool) {
		fp := resultsFingerprint(res)
		mu.Lock()
		defer mu.Unlock()
		out.fps[j.Point] = fp
		if fromCache {
			out.hits++
		}
	}
	res, err := r.RunExperiment(context.Background(), e, matrixOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.body = buf.Bytes()
	return out
}

// A set is one golden-file section's rows and their plain-path sweep, the
// reference every other path of the set is held to.
type set struct {
	section string
	rows    []row
	ref     sweep
}

// plain runs rows on the plain path (exp.Simulate per job).
func plain(t *testing.T, section string, rows []row) *set {
	t.Helper()
	return &set{section, rows, runSweep(t, section, rows, exp.Runner{Workers: workers, Dispatch: simulate{}})}
}

// fingerprints maps each row's name to its plain-path Results fingerprint.
func (s *set) fingerprints() map[string]string {
	got := make(map[string]string, len(s.rows))
	for i, rw := range s.rows {
		got[rw.name] = s.ref.fps[i]
	}
	return got
}

// compare holds one sweep of s to the plain path's.
func (s *set) compare(t *testing.T, got sweep) {
	t.Helper()
	for i, rw := range s.rows {
		if got.fps[i] != s.ref.fps[i] {
			t.Errorf("%s %s: Results fingerprint %s, plain path %s", s.section, rw.name, got.fps[i], s.ref.fps[i])
		}
	}
	if !bytes.Equal(got.body, s.ref.body) {
		t.Errorf("%s sweep bytes differ from the plain path's\nplain: %s\ngot:   %s", s.section, s.ref.body, got.body)
	}
}

// check runs s on r against the plain path and returns how many jobs r
// served from its cache.
func (s *set) check(t *testing.T, r exp.Runner) (hits int) {
	t.Helper()
	got := runSweep(t, s.section, s.rows, r)
	s.compare(t, got)
	return got.hits
}

// TestPathMatrix is the differential matrix: every execution path a
// result can reach a user through must commit the bits the plain kernel
// commits. The plain path (exp.Simulate per job) is pinned to
// testdata/fingerprints.golden.json; every other path must reproduce its
// per-job Results fingerprints and its encoded sweep byte for byte, and
// each path's own counters (checkpoint, trace, cache, local and remote
// completions) must show the path really ran. The runner and warmenv
// paths run the plain kernel, replay adds traces alone, and the paths
// from checkpoint-restored on replay traces and restore the warmups the
// checkpoint-cold sweep saved, as smtd does. Every path runs every
// variant row; under -short every fifth row runs, through every path. The
// policy pairs are TestPolicyPairFingerprints' and
// TestPolicyPairFingerprintsWarm's rows.
//
// Refresh after an intentional simulator change with:
//
//	go test ./internal/exp -run 'PathMatrix|PolicyPairFingerprints$' -update
func TestPathMatrix(t *testing.T) {
	rows := variantRows
	if testing.Short() {
		var sample []row
		for i := 0; i < len(rows); i += 5 {
			sample = append(sample, rows[i])
		}
		rows = sample
	}
	variants := plain(t, "variants", rows)
	n, maxThreads := len(variants.rows), 0
	for _, rw := range variants.rows {
		maxThreads = max(maxThreads, rw.cfg.Threads)
	}

	t.Run("simulate", func(t *testing.T) {
		checkGolden(t, variants.section, variants.fingerprints(), !testing.Short())
	})

	// The checkpoint path's cold sweep fills one store, here, so that any
	// path runs alone under -run. Every path after it restores its warmups
	// from that store, as smtd's local slots and workers share one
	// checkpoint stack, through counters of its own.
	ckpt := cache.New[[]byte](0)
	fill := snapshot.NewStore(ckpt)
	cold := runSweep(t, variants.section, variants.rows, exp.Runner{Workers: workers, Dispatch: exp.WarmEnv{Snapshots: fill, Traces: snapshot.NewTraceCache(0)}})
	t.Run("checkpoint-cold", func(t *testing.T) {
		variants.compare(t, cold)
		if st := fill.Stats(); st.Misses != int64(n) || st.Puts != int64(n) || st.Hits != 0 {
			t.Errorf("checkpoint stats %+v, want %d misses, each filled", st, n)
		}
	})
	// restoring returns an env that replays traces and restores from the
	// filled store, and the check that it restored rows warmups and warmed
	// none.
	restoring := func(t *testing.T, rows int) (exp.WarmEnv, func()) {
		store := snapshot.NewStore(ckpt)
		return exp.WarmEnv{Snapshots: store, Traces: snapshot.NewTraceCache(0)}, func() {
			t.Helper()
			if st := store.Stats(); st.Hits != int64(rows) || st.Misses != 0 || st.Puts != 0 {
				t.Errorf("checkpoint stats %+v, want %d restores and nothing warmed", st, rows)
			}
		}
	}

	paths := []struct {
		name string
		run  func(t *testing.T)
	}{
		// The rows above run a few thousand instructions a thread; a
		// cycle-loop rewrite can pass all of them and still change an
		// eight-thread machine a few hundred thousand instructions in (see
		// the visit-order invariant at core's nextIssuable). The benchmark's
		// six machines, run long on the plain path, are that check.
		{"core_matrix", func(t *testing.T) {
			if testing.Short() {
				t.Skip("runs 20M instructions")
			}
			o := coreMatrixOpts()
			machines := coreMatrixMachines()
			type result struct{ name, hash string }
			ch := make(chan result)
			for name, cfg := range machines {
				go func() { ch <- result{name, resultsFingerprint(exp.Simulate(cfg, 0, o.Seed, o, 0, nil))} }()
			}
			got := make(map[string]string, len(machines))
			for range machines {
				r := <-ch
				got[r.name] = r.hash
			}
			checkGolden(t, "core_matrix", got, true)
		}},
		{"runner", func(t *testing.T) { variants.check(t, exp.Runner{Workers: 1}) }},
		{"warmenv", func(t *testing.T) { variants.check(t, exp.Runner{Workers: workers, Dispatch: exp.WarmEnv{}}) }},
		{"replay", func(t *testing.T) {
			traces := snapshot.NewTraceCache(0)
			variants.check(t, exp.Runner{Workers: workers, Dispatch: exp.WarmEnv{Traces: traces}})
			if st := traces.Stats(); st.Builds != int64(maxThreads) {
				t.Errorf("trace stats %+v, want one build per context of the widest row (%d)", st, maxThreads)
			}
		}},
		{"checkpoint-restored", func(t *testing.T) {
			env, restoredAll := restoring(t, n)
			variants.check(t, exp.Runner{Workers: workers, Dispatch: env})
			restoredAll()
		}},
		{"interval", func(t *testing.T) {
			env, restoredAll := restoring(t, n)
			var mu sync.Mutex
			snaps, finals := make([]int, n), make([]string, n)
			variants.check(t, exp.Runner{Workers: workers, Dispatch: env, Interval: 300, OnSnapshot: func(j exp.Job, s smt.Snapshot) {
				mu.Lock()
				defer mu.Unlock()
				snaps[j.Point]++
				if s.Done {
					finals[j.Point] = resultsFingerprint(s.Cumulative)
				}
			}})
			for i, rw := range variants.rows {
				if snaps[i] < 2 || finals[i] != variants.ref.fps[i] {
					t.Errorf("%s: %d snapshots, final cumulative %s; want interval + final, and %s", rw.name, snaps[i], finals[i], variants.ref.fps[i])
				}
			}
			restoredAll()
		}},
		{"cache", func(t *testing.T) {
			dir := t.TempDir()
			newTiered := func() *cache.Tiered[smt.Results] {
				disk, err := cache.NewDisk[smt.Results](dir)
				if err != nil {
					t.Fatal(err)
				}
				return cache.NewTiered(cache.New[smt.Results](0), disk)
			}
			results := newTiered()
			env, restoredAll := restoring(t, n)
			r := exp.Runner{Workers: workers, Cache: cache.NewFlight(results), Dispatch: env}
			t.Run("cold", func(t *testing.T) {
				hits, st := variants.check(t, r), results.Stats()
				files, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if hits != 0 || st.Memory.Len != n || st.Disk.Hits != 0 || len(files) != n {
					t.Errorf("%d hits, memory %+v, disk %+v, %d files; want every job simulated and stored in both tiers", hits, st.Memory, st.Disk, len(files))
				}
			})
			t.Run("hit", func(t *testing.T) {
				if hits, st := variants.check(t, r), results.Stats(); hits != n || st.Memory.Hits != int64(n) {
					t.Errorf("%d hits, memory %+v; want every job from memory", hits, st.Memory)
				}
			})
			t.Run("disk", func(t *testing.T) {
				results := newTiered() // a restarted process on the same directory
				r.Cache = cache.NewFlight(results)
				if hits, st := variants.check(t, r), results.Stats(); hits != n || st.Disk.Hits != int64(n) || st.Disk.Misses != 0 {
					t.Errorf("%d hits, disk %+v; want every job from the files the first process wrote", hits, st.Disk)
				}
			})
			restoredAll()
		}},
		{"local", func(t *testing.T) {
			env, restoredAll := restoring(t, n)
			coord := dist.NewCoordinator(dist.Options{Exec: dist.SimulateJob(env), LocalSlots: 2})
			defer coord.Close()
			variants.check(t, exp.Runner{Workers: workers, Dispatch: coord})
			restoredAll()
			if st := coord.Stats(); st.LocalDone != int64(n) || st.RemoteDone != 0 {
				t.Errorf("local_done %d remote_done %d, want %d and 0", st.LocalDone, st.RemoteDone, n)
			}
		}},
		{"remote", func(t *testing.T) {
			coord := dist.NewCoordinator(dist.Options{LeaseTTL: 2 * time.Second, PollWait: 200 * time.Millisecond, SweepEvery: 50 * time.Millisecond})
			defer coord.Close()
			mux := http.NewServeMux()
			coord.Handle(mux)
			srv := httptest.NewServer(mux)
			defer srv.Close()
			env, restoredAll := restoring(t, n)
			ctx, cancel := context.WithCancel(context.Background())
			w := dist.NewWorker(dist.WorkerOptions{Coordinator: srv.URL, Name: "matrix", Slots: 2, Warm: env, Backoff: 50 * time.Millisecond})
			stopped := make(chan error, 1)
			go func() { stopped <- w.Run(ctx) }()
			defer func() { cancel(); <-stopped }()
			for deadline := time.Now().Add(10 * time.Second); coord.Capacity() == 0; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("worker never registered")
				}
			}
			variants.check(t, exp.Runner{Workers: workers, Dispatch: coord})
			restoredAll()
			st := coord.Stats()
			if st.RemoteDone != int64(n) || st.LocalDone != 0 || len(st.Workers) != 1 || st.Workers[0].Completed != int64(n) {
				t.Errorf("remote_done %d local_done %d workers %+v, want all %d jobs completed by the one worker", st.RemoteDone, st.LocalDone, st.Workers, n)
			}
		}},
	}
	// The paths only read what was built above, so they run side by side
	// (up to -parallel at a time) and fill the cores the serial runner
	// path leaves idle.
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			p.run(t)
		})
	}
}

// indistinct lists every group of registered machines whose results the
// golden file's variants section shows byte-identical, names sorted, with
// the reason the workload cannot tell them apart. A registered strategy
// the workload cannot distinguish is dead weight or a workload defect, so
// a new group fails TestVariantsDistinct until it is listed here, and an
// entry the goldens no longer bear out fails it until it is removed.
var indistinct = []struct {
	machines []string
	reason   string
}{
	{[]string{"fetch=ICOUNT", "predictor=gshare.noret", "predictor=gshare.rasonly"}, fewReturns},
	{[]string{"predictor=gskewed", "predictor=gskewed.noret", "predictor=gskewed.rasonly"}, fewReturns},
	{[]string{"predictor=none", "predictor=none.noret", "predictor=none.rasonly"}, fewReturns},
	{[]string{"predictor=smiths", "predictor=smiths.noret", "predictor=smiths.rasonly"}, fewReturns},
	{[]string{"predictor=static", "predictor=static.noret", "predictor=static.rasonly"}, fewReturns},
}

// fewReturns is the reason every indistinct group gives: each is one
// direction engine under its three return schemes.
const fewReturns = "the workload makes a few dozen returns and indirect jumps in half a million instructions, too few for return prediction to move this engine's results"

// TestVariantsDistinct groups the golden file's variants section by
// Results fingerprint and holds every group of two or more machines to
// the indistinct table, exactly: an unlisted group and a stale entry both
// fail. It reads the golden file and simulates nothing.
func TestVariantsDistinct(t *testing.T) {
	var file map[string]map[string]string
	raw, err := os.ReadFile(goldenFile)
	if err == nil {
		err = json.Unmarshal(raw, &file)
	}
	if err != nil {
		t.Fatal(err)
	}
	byHash := map[string][]string{}
	for name, h := range file["variants"] {
		byHash[h] = append(byHash[h], name)
	}
	listed := map[string]bool{}
	for _, e := range indistinct {
		if e.reason == "" {
			t.Errorf("indistinct %v carries no reason", e.machines)
		}
		listed[fmt.Sprint(e.machines)] = true
	}
	for _, names := range byHash {
		if len(names) < 2 {
			continue
		}
		sort.Strings(names)
		if !listed[fmt.Sprint(names)] {
			t.Errorf("machines %v produce identical results and are not listed in indistinct", names)
		}
		delete(listed, fmt.Sprint(names))
	}
	for group := range listed {
		t.Errorf("indistinct lists %s, which the golden file does not show as one group of identical results", group)
	}
}

// TestPolicyPairFingerprints pins the plain path of every fetch x issue
// policy pair, as the x.2.8 scheme at 4 threads, to the golden file's
// policy_pairs section: not just "policy names still content-address
// identically" but "every selector still simulates identically, cycle for
// cycle".
func TestPolicyPairFingerprints(t *testing.T) {
	pairs := pairSet(t)
	checkGolden(t, pairs.section, pairs.fingerprints(), true)
}

// pairRef holds the policy pairs' plain-path sweep, run by whichever pair
// test comes first and shared with the other.
var pairRef struct {
	once sync.Once
	ref  *set
}

func pairSet(t *testing.T) *set {
	t.Helper()
	pairRef.once.Do(func() { pairRef.ref = plain(t, "policy_pairs", pairRows) })
	if pairRef.ref == nil {
		t.Fatal("the policy pairs' plain-path sweep failed")
	}
	return pairRef.ref
}

// TestPolicyPairFingerprintsWarm runs every policy pair through trace
// replay and warmup checkpoints, first filling the store cold and then
// restoring every pair's warmup from it; both sweeps must equal the plain
// path's fingerprints and bytes, with one trace build per context of the
// 4-thread rotation shared by all of them.
func TestPolicyPairFingerprintsWarm(t *testing.T) {
	pairs := pairSet(t)
	store, traces := snapshot.NewStore(cache.New[[]byte](0)), snapshot.NewTraceCache(0)
	r := exp.Runner{Workers: workers, Dispatch: exp.WarmEnv{Snapshots: store, Traces: traces}}
	pairs.check(t, r)
	pairs.check(t, r)
	n := int64(len(pairs.rows))
	if st := store.Stats(); st.Misses != n || st.Puts != n || st.Hits != n {
		t.Errorf("checkpoint stats %+v, want %d cold fills then %d restores", st, n, n)
	}
	if st := traces.Stats(); st.Builds != 4 {
		t.Errorf("trace stats %+v, want one build per context of the 4-thread rotation", st)
	}
}

// goldenFile holds the plain path's Results fingerprints, one section per
// row set: variants, policy_pairs and core_matrix.
const goldenFile = "testdata/fingerprints.golden.json"

// resultsFingerprint is the Results address goldenFile pins: SHA-256,
// first 16 bytes in hex, of the Results' JSON encoding, the form a result
// is cached and shipped in.
func resultsFingerprint(res smt.Results) string {
	raw, err := json.Marshal(res)
	if err != nil {
		panic(err) // unreachable: every rate is a finite ratio
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// checkGolden compares got, row name -> Results fingerprint, with one
// section of goldenFile. Every name the section lists must match; a row it
// does not list (a strategy registered since the file was written) is held
// to the other paths only. complete says got is the whole section, so a
// listed name missing from it is a machine no longer produced. Under
// -update (golden_test.go's flag) it rewrites the section instead.
func checkGolden(t *testing.T, section string, got map[string]string, complete bool) {
	t.Helper()
	file := map[string]map[string]string{}
	raw, err := os.ReadFile(goldenFile)
	if err == nil {
		err = json.Unmarshal(raw, &file)
	}
	if flag.Lookup("update").Value.String() == "true" {
		if !complete {
			t.Fatal("-update needs every row: run it without -short")
		}
		file[section] = got
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := file[section]
	for name, h := range got {
		switch w, ok := want[name]; {
		case !ok:
			t.Logf("%s %s is not in %s: held to the other paths only (-update pins it)", section, name, goldenFile)
		case h != w:
			t.Errorf("%s %s: Results fingerprint drifted: got %s want %s", section, name, h, w)
		}
	}
	if complete {
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s %s in %s is no longer produced", section, name, goldenFile)
			}
		}
	}
}

// coreMatrixOpts are the budgets behind the core_matrix section: the
// per-thread warmup and measured instructions of one run at seed 1.
func coreMatrixOpts() exp.Opts {
	return exp.Opts{Runs: 1, Warmup: 100_000, Measure: 400_000, Seed: 1}
}

// coreMatrixMachines are the six machines of the benchmark's core_matrix
// workload (bench/grid.go pins its own copy).
func coreMatrixMachines() map[string]smt.Config {
	optLast := exp.ICount28(8)
	optLast.IssuePolicy = smt.IssueOptLast
	iqposn := exp.ICount28(8)
	iqposn.FetchPolicy = smt.FetchIQPosn
	noneVFR := exp.ICount28(8)
	noneVFR.Branch.Predictor = smt.PredNone
	noneVFR.VarFetchRate = true
	return map[string]smt.Config{
		"superscalar":         smt.Superscalar(),
		"rr18x8":              smt.DefaultConfig(8),
		"icount28x8":          exp.ICount28(8),
		"icount28x8_optlast":  optLast,
		"iqposn28x8":          iqposn,
		"icount28x8_none_vfr": noneVFR,
	}
}

// BenchmarkStep is the cycle loop's A/B harness: one sub-benchmark per
// core_matrix machine, plus ICOUNT.2.8×8 under SPEC_LAST and under
// BRANCH_FIRST so every issue-stage path is timed, each built, warmed and
// checkpointed once outside the timer; each iteration restores the
// checkpoint (untimed) and runs a fixed instruction budget, so every
// iteration is the same simulated work and ns/cycle compares across
// binaries. Judge a lever with
//
//	go test ./internal/exp -run '^$' -bench Step -count 10
//
// on the parent and the change, alternating (`go test -c` once each).
func BenchmarkStep(b *testing.B) {
	const warmup, budget = 100_000, 50_000 // instructions a thread
	machines := coreMatrixMachines()
	for name, issue := range map[string]smt.IssueAlg{
		"icount28x8_speclast":    smt.IssueSpecLast,
		"icount28x8_branchfirst": smt.IssueBranchFirst,
	} {
		cfg := exp.ICount28(8)
		cfg.IssuePolicy = issue
		machines[name] = cfg
	}
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := machines[name]
		b.Run(name, func(b *testing.B) {
			spec := smt.WorkloadMix(cfg.Threads, 0, coreMatrixOpts().Seed)
			threads := int64(cfg.Threads)
			sim := smt.MustNew(cfg, spec)
			sim.Warmup(warmup * threads)
			warm, err := sim.SaveSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim = smt.MustNew(cfg, spec)
				if err := sim.RestoreSnapshot(warm); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cycles += sim.Run(budget * threads).Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
	}
}

// BenchmarkBuild is a machine's size next to BenchmarkStep's speed: one
// sub-benchmark per core_matrix machine for smt.New (programs built per
// call, as every cold job does) and for smt.NewReplay over a TraceSet
// built once outside the timer (the path a job with a cached trace takes).
// B/op is what one machine allocates to exist.
//
//	go test ./internal/exp -run '^$' -bench Build -benchmem
func BenchmarkBuild(b *testing.B) {
	const records = 1 << 16 // a trace prefix a thread; replay does not copy it
	machines := coreMatrixMachines()
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := machines[name]
		spec := smt.WorkloadMix(cfg.Threads, 0, coreMatrixOpts().Seed)
		b.Run("new/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := smt.New(cfg, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("replay/"+name, func(b *testing.B) {
			ts, err := smt.BuildTraceSet(spec, records)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := smt.NewReplay(cfg, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
