package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/snapshot"
)

// TestDistributedSmoke is CI's distributed smoke job: boot a coordinator
// and a worker through the real binary entry point, run a 2-point sweep
// through them, assert the results are byte-identical on cached
// resubmission and that the worker really executed jobs.
func TestDistributedSmoke(t *testing.T) {
	// Coordinator on an ephemeral port, with one local slot: of the two
	// jobs dispatched together, at least one goes to the worker.
	ready := make(chan string, 1)
	var cout, cerr bytes.Buffer
	go run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, &cout, &cerr, ready)
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatalf("coordinator never came up\nstdout: %s\nstderr: %s", cout.String(), cerr.String())
	}

	// Worker joining it — the same binary, worker mode. (Like the plain
	// service smoke test, the processes-in-goroutines run until the test
	// binary exits.)
	var wout, werr bytes.Buffer
	go run([]string{"-worker", "-join", base, "-workers", "2", "-name", "smoke-worker"}, &wout, &werr, nil)

	status := func() dist.Status {
		t.Helper()
		resp, err := http.Get(base + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st dist.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	deadline := time.Now().Add(10 * time.Second)
	for status().Capacity < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered\nworker stdout: %s\nstderr: %s", wout.String(), werr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	post := func() sweepStatus {
		t.Helper()
		body := `{
			"name": "dist-smoke",
			"grid": [
				{"series": "RR.1.8", "threads": 2},
				{"series": "ICOUNT.2.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}}
			],
			"opts": {"runs": 1, "warmup": 500, "measure": 1000, "seed": 1},
			"wait": true
		}`
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
		if st.State != "done" || st.TotalJobs != 2 {
			t.Fatalf("sweep did not finish: %+v", st)
		}
		return st
	}
	result := func(st sweepStatus) string {
		t.Helper()
		resp, err := http.Get(base + st.ResultURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	first := post()
	if first.CacheHits != 0 {
		t.Fatalf("cold distributed sweep reported %d cache hits", first.CacheHits)
	}
	// The worker and the coordinator's local slot share the jobs.
	st := status()
	if st.RemoteDone < 1 || st.RemoteDone+st.LocalDone != int64(first.TotalJobs) {
		t.Fatalf("want >= 1 remote and %d in all, got %d remote / %d local", first.TotalJobs, st.RemoteDone, st.LocalDone)
	}
	if len(st.Workers) != 1 || st.Workers[0].Completed != st.RemoteDone {
		t.Fatalf("worker registry does not show the %d remote completions: %+v", st.RemoteDone, st.Workers)
	}

	second := post()
	if second.CacheHits != second.TotalJobs {
		t.Fatalf("resubmission hit cache on %d of %d jobs", second.CacheHits, second.TotalJobs)
	}
	if a, b := result(first), result(second); a != b || len(a) == 0 {
		t.Fatalf("cached resubmission changed the result:\n%s\nvs\n%s", a, b)
	}
	// Resubmission was served from cache — no new executions.
	if again := status(); again.RemoteDone != st.RemoteDone || again.LocalDone != st.LocalDone {
		t.Fatalf("cached resubmission re-dispatched jobs: remote_done=%d local_done=%d", again.RemoteDone, again.LocalDone)
	}
}

// routeCounter is a worker's transport that counts its requests by route.
// Cache requests count by the kind of key they carry: warmup checkpoints
// ("snap:" keys) apart from results.
type routeCounter struct {
	base *http.Transport
	mu   sync.Mutex
	n    map[string]int
}

func (c *routeCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	route := r.Method + " " + r.URL.Path
	if key, ok := strings.CutPrefix(r.URL.Path, "/v1/cache/"); ok {
		route = r.Method + " /v1/cache/{result}"
		if strings.HasPrefix(key, snapshot.KeyPrefix) {
			route = r.Method + " /v1/cache/{snap}"
		}
	}
	c.mu.Lock()
	c.n[route]++
	c.mu.Unlock()
	return c.base.RoundTrip(r)
}

func (c *routeCounter) count(route string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.n[route])
}

// TestWorkerTrafficContract pins what a worker sends a coordinator on a
// cold sweep: one result post per remotely completed job, one checkpoint
// peek per remote job, and no result-cache traffic at all — the
// coordinator looks every result key up before it dispatches and stores
// every posted result, so a worker-side peek or fill only repeats it.
func TestWorkerTrafficContract(t *testing.T) {
	s := NewServer(1, 0)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	rc := &routeCounter{base: &http.Transport{}, n: map[string]int{}}
	t.Cleanup(rc.base.CloseIdleConnections)
	w := dist.NewWorker(dist.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "counted",
		Slots:       2,
		Backoff:     20 * time.Millisecond,
		Client:      &http.Client{Transport: rc, Timeout: 30 * time.Second},
	})
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for distStatus(t, ts.URL).Capacity < 2 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := postSweepBody(t, ts.URL, `{
		"name": "traffic",
		"grid": [
			{"series": "RR.1.8", "threads": 2},
			{"series": "ICOUNT.2.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}},
			{"series": "BRCOUNT.1.8", "threads": 2, "config": {"FetchPolicy": "BRCOUNT"}},
			{"series": "ICOUNT.1.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT"}}
		],
		"opts": {"runs": 2, "warmup": 400, "measure": 800, "seed": 5},
		"wait": true
	}`)
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	ds := distStatus(t, ts.URL)
	if st.CacheHits != 0 || ds.RemoteDone < 1 || ds.RemoteDone+ds.LocalDone != int64(st.TotalJobs) {
		t.Fatalf("want a cold sweep with remote jobs: %d hits, %d remote + %d local of %d",
			st.CacheHits, ds.RemoteDone, ds.LocalDone, st.TotalJobs)
	}
	for _, route := range []string{"GET /v1/cache/{result}", "PUT /v1/cache/{result}"} {
		if n := rc.count(route); n != 0 {
			t.Errorf("%s: %d worker requests, want 0", route, n)
		}
	}
	if n := rc.count("POST /v1/work/result"); n != ds.RemoteDone {
		t.Errorf("POST /v1/work/result: %d, want one per remote job (%d)", n, ds.RemoteDone)
	}
	if n := rc.count("GET /v1/cache/{snap}"); n != ds.RemoteDone {
		t.Errorf("GET /v1/cache/{snap}: %d, want one per remote job (%d)", n, ds.RemoteDone)
	}
}

// TestVersionEndpoint: /v1/version reports build identity from
// runtime/debug.ReadBuildInfo.
func TestVersionEndpoint(t *testing.T) {
	ts := newTestService(t)
	var v struct {
		Module    string `json:"module"`
		GoVersion string `json:"go_version"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/version", nil, &v); code != 200 {
		t.Fatalf("status %d", code)
	}
	if v.Module != "repro" || v.GoVersion == "" {
		t.Fatalf("version info incomplete: %+v", v)
	}
}

// TestCachePeekFillEndpoints: the content-addressed cache surface —
// checkpoints for workers, results and checkpoints for federation peers —
// serves misses as 404 and round-trips fills.
func TestCachePeekFillEndpoints(t *testing.T) {
	ts := newTestService(t)
	if code := doJSON(t, "GET", ts.URL+"/v1/cache/nope", nil, nil); code != 404 {
		t.Fatalf("peek of empty cache: status %d, want 404", code)
	}
	body := strings.NewReader(`{"ipc": 1.5, "cycles": 10}`)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/somekey", body)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fill: status %d, want 204", resp.StatusCode)
	}
	var got struct {
		IPC float64 `json:"ipc"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/cache/somekey", nil, &got); code != 200 || got.IPC != 1.5 {
		t.Fatalf("peek after fill: status %d, ipc %v", code, got.IPC)
	}
}

// TestDrainWaitsForRunningSweeps: Drain returns once running sweeps
// finish and reports stragglers on timeout.
func TestDrainWaitsForRunningSweeps(t *testing.T) {
	s := NewServer(2, 16)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var st sweepStatus
	code := doJSON(t, "POST", ts.URL+"/v1/sweep",
		map[string]any{"experiment": "fig7", "opts": tinyOpts(), "wait": false}, &st)
	if code != 202 {
		t.Fatalf("submit: status %d", code)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if left := s.Drain(drainCtx); left != 0 {
		t.Fatalf("drain left %d sweeps running", left)
	}
	var after sweepStatus
	doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &after)
	if after.State != "done" {
		t.Fatalf("sweep state after drain: %q, want done", after.State)
	}
	// A draining server must refuse new sweeps — nothing would wait for
	// them and shutdown would kill them mid-run.
	code = doJSON(t, "POST", ts.URL+"/v1/sweep",
		map[string]any{"experiment": "fig7", "opts": tinyOpts(), "wait": false}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sweep submitted while draining: status %d, want 503", code)
	}
}
