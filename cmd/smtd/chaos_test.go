package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/resilience/faults"
	"repro/smt"
)

// chaosSweepBody is the sweep the chaos suite replays: four distinct
// configs x two runs = 8 jobs, small enough to simulate in milliseconds,
// with interval streaming on so snapshot posts cross the faulty wire too.
const chaosSweepBody = `{
	"name": "chaos",
	"grid": [
		{"series": "RR.1.8", "threads": 2},
		{"series": "ICOUNT.2.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}},
		{"series": "BRCOUNT.1.8", "threads": 2, "config": {"FetchPolicy": "BRCOUNT"}},
		{"series": "ICOUNT.1.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT"}}
	],
	"opts": {"runs": 2, "warmup": 400, "measure": 800, "seed": 3},
	"interval_cycles": 2000,
	"wait": true
}`

// chaosSeed returns the suite's fault-schedule seed: CHAOS_SEED when set
// (reproducing a CI failure locally is one env var), else a fixed
// default. Always logged, so every failure report carries its schedule.
func chaosSeed(t *testing.T) uint64 {
	seed := uint64(0x5eed_c4a0_5000_0001)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %#x (rerun with CHAOS_SEED=%#x)", seed, seed)
	return seed
}

// listenLocal opens a real listener on an ephemeral loopback port.
func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// postSweepBody submits body to base and requires a finished sweep.
func postSweepBody(t *testing.T, base, body string) sweepStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("sweep did not finish: %+v", st)
	}
	return st
}

// TestChaosSweepByteIdentical is the chaos suite's core acceptance
// test: a sweep on one coordinator with two workers, faults injected on
// every worker edge — beats, polls, result and snapshot posts,
// checkpoint peeks and fills — must still complete, and its result bytes
// must be identical to a fault-free run.
// The resilience layer may retry, requeue and re-simulate as much as it
// likes; what it may never do is change bytes, wedge the sweep, stall a
// drain, or leak goroutines.
func TestChaosSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped chaos run")
	}
	seed := chaosSeed(t)

	// Fault-free baseline on a pristine server, torn down before the
	// goroutine watermark is taken.
	var baseline string
	{
		s := newServer(t, ServerOptions{Workers: 2})
		ln := listenLocal(t)
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		st := postSweepBody(t, "http://"+ln.Addr().String(), chaosSweepBody)
		baseline = getBody(t, "http://"+ln.Addr().String()+st.ResultURL)
		hs.Close()
		s.Close()
	}
	if len(baseline) == 0 {
		t.Fatal("empty baseline result")
	}
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	gBefore := runtime.NumGoroutine()

	server := newServer(t, ServerOptions{Workers: 2, CacheSize: 4096, CacheDir: t.TempDir()})
	ln := listenLocal(t)
	hs := &http.Server{Handler: server.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Two workers, every protocol edge faulted. Response-mangling faults
	// (truncate, corrupt) stay off /v1/work: they are harmless on the
	// cache surface (a garbled body is a miss), and a garbled poll
	// response strands its leases for one lease TTL before they lapse and
	// requeue (the worker's beats list only the leases it received;
	// internal/dist's TestLostPollReplyLeaseLapses covers it), which slows
	// the test without testing anything new — pre-send faults (err, code)
	// already cover "the poll never landed".
	const workerSpec = "/v1/work/next=err@0.08,latency:5ms@0.15;" +
		"/v1/work/result=err@0.1,latency:5ms@0.15,code:503@0.1;" +
		"/v1/work/snapshot=err@0.2,code:500@0.1;" +
		"/v1/cache=err@0.2,latency:5ms@0.2,code:500@0.1,truncate@0.15,corrupt@0.15;" +
		"/v1/workers=err@0.1,latency:2ms@0.1"
	wctx, wcancel := context.WithCancel(context.Background())
	var wdone sync.WaitGroup
	var workerBases []*http.Transport
	var workerFaults []*faults.Transport
	for i := range 2 {
		tr := &http.Transport{}
		ft, err := faults.New(workerSpec, seed^uint64(0xB0+i), tr)
		if err != nil {
			t.Fatal(err)
		}
		workerBases = append(workerBases, tr)
		workerFaults = append(workerFaults, ft)
		w := dist.NewWorker(dist.WorkerOptions{
			Coordinator: base,
			Name:        fmt.Sprintf("chaos%d", i),
			Slots:       2,
			Backoff:     20 * time.Millisecond,
			DrainGrace:  2 * time.Second,
			Client:      &http.Client{Transport: ft, Timeout: 15 * time.Second},
			Warm:        exp.WarmEnv{Traces: smt.NewTraceCache(0)},
		})
		wdone.Add(1)
		go func() {
			defer wdone.Done()
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker run: %v", err)
			}
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for server.coord.Capacity() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for workers to register")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The sweep must complete and match the baseline bytes, and so must
	// its resubmission, served from whatever the faults let the cache
	// keep.
	first := postSweepBody(t, base, chaosSweepBody)
	if got := getBody(t, base+first.ResultURL); got != baseline {
		t.Fatalf("faulted sweep changed result bytes:\n%s\nvs baseline\n%s", got, baseline)
	}
	second := postSweepBody(t, base, chaosSweepBody)
	if got := getBody(t, base+second.ResultURL); got != baseline {
		t.Fatalf("resubmission changed result bytes:\n%s\nvs baseline\n%s", got, baseline)
	}

	// The schedule really fired: at least one fault of some kind landed
	// on the worker edges (an all-passed run means the spec went inert).
	var injected int64
	for _, ft := range workerFaults {
		fs := ft.Stats()
		injected += fs.Errors + fs.Delays + fs.Codes + fs.Truncates + fs.Corrupts
	}
	if injected == 0 {
		t.Fatal("no worker-edge faults injected; the chaos schedule is inert")
	}
	cs := server.coord.Stats()
	t.Logf("worker-edge faults injected: %d; jobs done remote %d, local %d", injected, cs.RemoteDone, cs.LocalDone)

	// Drain both workers against the (still live, still faulty)
	// coordinator: bounded, clean exit.
	start := time.Now()
	wcancel()
	drained := make(chan struct{})
	go func() { wdone.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("worker drain not bounded under faults")
	}
	t.Logf("worker drain took %v", time.Since(start))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	hs.Shutdown(ctx)
	cancel()
	server.Close()
	for _, tr := range workerBases {
		tr.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections()

	// No goroutine leaks: everything the cluster spawned — beats,
	// executors, janitors, parked polls — must be gone.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= gBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before cluster, %d after teardown\n%s",
				gBefore, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosDiskCorruptionRestart: bytes that rot on disk while the
// coordinator is down are caught when its successor reads them. A sweep
// fills a -cache-dir; with that server gone, every fourth entry file by
// sorted name, in the result tier and in snapshots/, has 8 bytes mid-file
// overwritten with NULs; a new server on the directory must answer the
// resubmission with the same bytes, counting each mangled result file
// once as corrupt and re-simulating exactly those jobs.
func TestChaosDiskCorruptionRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("two servers over one cache directory")
	}
	dir := t.TempDir()
	serve := func() (*Server, string, func()) {
		s := newServer(t, ServerOptions{Workers: 2, CacheDir: dir})
		ts := httptest.NewServer(s.Handler())
		return s, ts.URL, func() { ts.Close(); s.Close() }
	}

	_, base, stop := serve()
	st := postSweepBody(t, base, chaosSweepBody)
	baseline := getBody(t, base+st.ResultURL)
	stop()

	mangle := func(sub string) int {
		ents, err := os.ReadDir(filepath.Join(dir, sub)) // sorted by name
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				files = append(files, filepath.Join(dir, sub, e.Name()))
			}
		}
		n := 0
		for i := 0; i < len(files); i += 4 {
			raw, err := os.ReadFile(files[i])
			if err != nil {
				t.Fatal(err)
			}
			clear(raw[len(raw)/2 : min(len(raw)/2+8, len(raw))])
			if err := os.WriteFile(files[i], raw, 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	results, snaps := mangle(""), mangle("snapshots")
	if results == 0 || snaps == 0 {
		t.Fatalf("mangled %d result and %d checkpoint files; the sweep left too few", results, snaps)
	}

	server, base, stop := serve()
	defer stop()
	again := postSweepBody(t, base, chaosSweepBody)
	if got := getBody(t, base+again.ResultURL); got != baseline {
		t.Fatalf("resubmission over a rotted cache changed result bytes:\n%s\nvs baseline\n%s", got, baseline)
	}
	if got := server.results.Stats().Disk.Corrupt; got != int64(results) {
		t.Errorf("result tier counted %d corrupt files, %d were mangled", got, results)
	}
	if got := server.coord.Stats().Dispatched; got != int64(results) {
		t.Errorf("re-simulated %d jobs, %d result files were mangled", got, results)
	}
	if got := server.snaps.Stats().Disk.Corrupt; got > int64(snaps) {
		t.Errorf("checkpoint tier counted %d corrupt files, only %d were mangled", got, snaps)
	}
	t.Logf("mangled %d of the result files and %d checkpoints; %d jobs re-simulated",
		results, snaps, server.coord.Stats().Dispatched)
}
