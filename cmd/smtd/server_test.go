package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/smt"
)

// tinyOpts keeps service tests fast; matches the engine's test budgets.
func tinyOpts() *exp.Opts {
	return &exp.Opts{Runs: 1, Warmup: 500, Measure: 1000, Seed: 1}
}

func newTestService(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(t, ServerOptions{Workers: 2}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// doJSON posts v (or GETs when v is nil) and decodes the response into out.
func doJSON(t *testing.T, method, url string, v, out any) int {
	t.Helper()
	var body bytes.Buffer
	if v != nil {
		if err := json.NewEncoder(&body).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestExperimentsEndpointListsRegistry(t *testing.T) {
	ts := newTestService(t)
	var got []experimentInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/experiments", nil, &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(got) != len(exp.Names()) {
		t.Fatalf("listed %d experiments, registry has %d", len(got), len(exp.Names()))
	}
	for i, name := range exp.Names() {
		if got[i].Name != name {
			t.Errorf("entry %d is %q, want %q (registry order is the contract)", i, got[i].Name, name)
		}
		if got[i].Points == 0 || got[i].Title == "" {
			t.Errorf("entry %s missing shape/title: %+v", name, got[i])
		}
	}
}

// TestSweepMatchesEngineBytes is the service's core contract: the sweep
// result must be byte-identical to the engine's canonical encoding (the
// same bytes `experiments -json` wraps in an array) for identical opts.
func TestSweepMatchesEngineBytes(t *testing.T) {
	ts := newTestService(t)
	o := tinyOpts()
	var st sweepStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep",
		sweepRequest{Experiment: "fig7", Opts: o, Wait: true}, &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if st.State != "done" || st.DoneJobs != st.TotalJobs {
		t.Fatalf("sweep did not finish: %+v", st)
	}

	resp, err := http.Get(ts.URL + st.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	want, err := exp.Run("fig7", *o, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := want.EncodeJSON(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("service result differs from engine bytes:\n%s\nvs\n%s", got.String(), wantBuf.String())
	}
	// The result is a finished []byte, so it goes out sized, not chunked.
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(wantBuf.Len()) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %q, Transfer-Encoding %v; want %d and none", cl, resp.TransferEncoding, wantBuf.Len())
	}
}

// TestResubmissionServedFromCache: resubmitting an identical sweep must
// hit the cache for every job and return byte-identical results.
func TestResubmissionServedFromCache(t *testing.T) {
	ts := newTestService(t)
	req := sweepRequest{Experiment: "table4", Opts: tinyOpts(), Wait: true}

	var first sweepStatus
	doJSON(t, "POST", ts.URL+"/v1/sweep", req, &first)
	if first.State != "done" {
		t.Fatalf("first sweep: %+v", first)
	}
	if first.CacheHits != 0 {
		t.Fatalf("cold sweep hit the cache %d times", first.CacheHits)
	}
	const misses = "smtd_cache_memory_misses_total"
	before := scrape(t, ts.URL)[misses]

	var second sweepStatus
	doJSON(t, "POST", ts.URL+"/v1/sweep", req, &second)
	if second.State != "done" {
		t.Fatalf("second sweep: %+v", second)
	}
	if second.CacheHits != second.TotalJobs {
		t.Fatalf("resubmission hit cache on %d of %d jobs", second.CacheHits, second.TotalJobs)
	}
	// No new simulations: the store's miss count did not grow.
	if after := scrape(t, ts.URL)[misses]; after != before || before == 0 {
		t.Fatalf("resubmission simulated: %s %g -> %g", misses, before, after)
	}

	fetch := func(url string) string {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return b.String()
	}
	if a, b := fetch(first.ResultURL), fetch(second.ResultURL); a != b {
		t.Fatalf("cached sweep differs from fresh sweep:\n%s\nvs\n%s", a, b)
	}
}

// TestOverlappingSweepReusesCache: a sweep whose grid overlaps an earlier
// different sweep reuses the shared points (table3's whole grid is inside
// fig3's).
func TestOverlappingSweepReusesCache(t *testing.T) {
	ts := newTestService(t)
	o := tinyOpts()
	var st sweepStatus
	doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{Experiment: "fig3", Opts: o, Wait: true}, &st)
	if st.State != "done" {
		t.Fatalf("fig3: %+v", st)
	}
	doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{Experiment: "table3", Opts: o, Wait: true}, &st)
	if st.State != "done" || st.CacheHits != st.TotalJobs {
		t.Fatalf("table3 should be fully inside fig3's cache: %+v", st)
	}
}

func TestInlineGridSweep(t *testing.T) {
	ts := newTestService(t)
	req := sweepRequest{
		Name: "fetchpolicy-mini",
		Grid: []gridPoint{
			{Series: "RR", Threads: 2},
			{Series: "ICOUNT", Threads: 2,
				Config: json.RawMessage(`{"FetchPolicy": "ICOUNT", "FetchThreads": 2}`)},
		},
		Opts: tinyOpts(),
		Wait: true,
	}
	var st sweepStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep", req, &st); code != 200 {
		t.Fatalf("status %d: %+v", code, st)
	}
	if st.State != "done" || st.TotalJobs != 2 {
		t.Fatalf("inline sweep: %+v", st)
	}
	resp, err := http.Get(ts.URL + st.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res exp.ExperimentResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "fetchpolicy-mini" || len(res.Series) != 2 {
		t.Fatalf("inline result shape: %+v", res)
	}
	for _, s := range res.Series {
		if len(s.Points) != 1 || s.Points[0].IPC <= 0 {
			t.Fatalf("series %s produced no throughput: %+v", s.Name, s.Points)
		}
	}
}

// TestInlineGridWideFetch posts the request that used to panic the cycle
// loop (more fetch picks in a cycle than the fetch stage had room for) and
// take the whole service down with it: it is a valid machine and must run.
func TestInlineGridWideFetch(t *testing.T) {
	ts := newTestService(t)
	req := sweepRequest{Grid: []gridPoint{wideFetchPoint(t, 32)}, Opts: tinyOpts(), Wait: true}
	var st sweepStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep", req, &st); code != 200 {
		t.Fatalf("status %d: %+v", code, st)
	}
	if st.State != "done" || st.DoneJobs != 1 {
		t.Fatalf("wide-fetch sweep: %+v", st)
	}
}

func TestSweepValidation(t *testing.T) {
	ts := newTestService(t)
	cases := []struct {
		name string
		body any
		code int
		want string
	}{
		{"unknown experiment", sweepRequest{Experiment: "nope"}, 400, "unknown experiment"},
		{"empty request", sweepRequest{}, 400, "empty sweep"},
		{"both experiment and grid", sweepRequest{Experiment: "fig7", Grid: []gridPoint{{Threads: 1}}}, 400, "not both"},
		{"bad threads", sweepRequest{Grid: []gridPoint{{Threads: 0}}}, 400, "threads"},
		{"bad config json", sweepRequest{Grid: []gridPoint{{Threads: 1, Config: json.RawMessage(`{"NoSuchField": 1}`)}}}, 400, "invalid config"},
		{"threads conflict", sweepRequest{Grid: []gridPoint{{Threads: 4, Config: json.RawMessage(`{"Threads": 8}`)}}}, 400, "conflicts with threads"},
		{"invalid machine", sweepRequest{Grid: []gridPoint{{Threads: 2, Config: json.RawMessage(`{"FetchThreads": 5}`)}}}, 400, "FetchThreads"},
		{"too many contexts", sweepRequest{Grid: []gridPoint{{Threads: 1000000}}}, 400, "Threads = 1000000"},
		{"too many banks", sweepRequest{Grid: []gridPoint{wideFetchPoint(t, 64)}}, 400, "L1I banks 64"},
		{"bad opts", sweepRequest{Experiment: "fig7", Opts: &exp.Opts{Runs: -1, Measure: 100}}, 400, "opts.runs"},
		// Times 8 threads, this measure wraps int64: a 400, not a panic.
		{"overflowing measure", sweepRequest{Grid: []gridPoint{{Threads: 8}}, Opts: &exp.Opts{Runs: 1, Measure: 1729382256910270464}}, 400, "opts.measure 1729382256910270464 exceeds"},
		{"too many jobs", sweepRequest{Experiment: "fig7", Opts: &exp.Opts{Runs: 1 << 40, Measure: 100}}, 400, "job limit"},
		{"malformed body", "not json at all", 400, "invalid request body"},
		// A machine property has one spelling; the retired second ones are
		// unknown fields, and a policy is its name, never a number.
		{"retired PerfectBranchPred", retiredField(`{"PerfectBranchPred": true}`), 400, `unknown field "PerfectBranchPred"`},
		{"retired Rename.TotalRegs", retiredField(`{"Rename": {"TotalRegs": 200}}`), 400, `unknown field "TotalRegs"`},
		{"retired Rename.Threads", retiredField(`{"Rename": {"Threads": 2}}`), 400, `unknown field "Threads"`},
		{"retired Branch.Threads", retiredField(`{"Branch": {"Threads": 2}}`), 400, `unknown field "Threads"`},
		{"retired Branch.Perfect", retiredField(`{"Branch": {"Perfect": true}}`), 400, `unknown field "Perfect"`},
		{"numeric FetchPolicy", retiredField(`{"FetchPolicy": 3}`), 400, "FetchPolicy"},
		// Table 2's memory bus is the L3's TransferTime; the knob nothing
		// read is gone.
		{"retired Mem.MemBusTime", retiredField(`{"Mem": {"MemBusTime": 4}}`), 400, `unknown field "MemBusTime"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var apiErr struct {
				Error string `json:"error"`
			}
			code := doJSON(t, "POST", ts.URL+"/v1/sweep", c.body, &apiErr)
			if code != c.code {
				t.Fatalf("status %d, want %d (%+v)", code, c.code, apiErr)
			}
			if !strings.Contains(apiErr.Error, c.want) {
				t.Fatalf("error %q does not mention %q", apiErr.Error, c.want)
			}
		})
	}
}

// The coordinator's scheduler events reach the process log: a worker's
// join is one line there. Not parallel: it swaps the log's output.
func TestSchedulerEventsReachTheLog(t *testing.T) {
	var out syncBuffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&out)
	ts := newTestService(t)
	if code := doJSON(t, "PUT", ts.URL+"/v1/workers/ab12", dist.Beat{Name: "logged", Slots: 1}, nil); code != 200 {
		t.Fatalf("beat: status %d", code)
	}
	if want := "worker ab12 (logged) joined"; !strings.Contains(out.String(), want) {
		t.Fatalf("log %q does not mention %q", out.String(), want)
	}
}

// syncBuffer is a bytes.Buffer safe to write from a handler goroutine while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// retiredField is a one-point grid whose config overlays raw.
func retiredField(raw string) sweepRequest {
	return sweepRequest{Grid: []gridPoint{{Threads: 2, Config: json.RawMessage(raw)}}}
}

// oversizedMachines are sweeps that ended the process when Validate put no
// upper bound on a field that sizes an allocation: an 8 GiB instruction
// queue, and an event ring sized from a 2^50-cycle memory latency. They
// are FuzzInlineGrid seeds too, though its stub executor builds no machine.
var oversizedMachines = []struct{ body, field string }{
	{`{"grid":[{"threads":2,"config":{"IQSize":1073741824}}],"opts":{"runs":1,"warmup":0,"measure":1000},"wait":true}`, "IQSize"},
	{`{"grid":[{"threads":2,"config":{"Mem":{"MemLatency":1125899906842624}}}],"opts":{"runs":1,"warmup":0,"measure":1000},"wait":true}`, "MemLatency"},
}

func TestOversizedMachineIsA400(t *testing.T) {
	ts := newTestService(t)
	for _, m := range oversizedMachines {
		var apiErr struct {
			Error string `json:"error"`
		}
		code := doJSON(t, "POST", ts.URL+"/v1/sweep", json.RawMessage(m.body), &apiErr)
		if code != 400 || !strings.Contains(apiErr.Error, m.field) {
			t.Errorf("%s: status %d, error %q; want a 400 naming %s", m.body, code, apiErr.Error, m.field)
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz after the oversized sweeps: status %d", code)
	}
}

func TestJobEndpoints(t *testing.T) {
	ts := newTestService(t)
	var apiErr struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/sweep-99", nil, &apiErr); code != 404 {
		t.Fatalf("unknown job: status %d", code)
	}

	var st sweepStatus
	doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{Experiment: "fig7", Opts: tinyOpts()}, &st)
	if st.ID == "" {
		t.Fatalf("no id: %+v", st)
	}
	// Progress streams: poll until done (budgets are tiny).
	deadline := time.Now().Add(30 * time.Second)
	for {
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st)
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.DoneJobs != st.TotalJobs || st.ResultURL == "" {
		t.Fatalf("finished sweep malformed: %+v", st)
	}

	var all []sweepStatus
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &all); code != 200 || len(all) != 1 {
		t.Fatalf("job list: status %d, %d entries", code, len(all))
	}

	// Result of an unfinished/unknown sweep conflicts or 404s.
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/sweep-99/result", nil, &apiErr); code != 404 {
		t.Fatalf("unknown result: status %d", code)
	}
}

func TestCancelSweep(t *testing.T) {
	ts := newTestService(t)
	// A big grid with real budgets: slow enough to still be running when
	// the cancel lands.
	var st sweepStatus
	doJSON(t, "POST", ts.URL+"/v1/sweep",
		sweepRequest{Experiment: "fig5", Opts: &exp.Opts{Runs: 4, Warmup: 20_000, Measure: 50_000, Seed: 1}}, &st)
	var out sweepStatus
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil, &out); code != 200 {
		t.Fatalf("cancel: status %d", code)
	}
	if out.State != "failed" || !strings.Contains(out.Error, context.Canceled.Error()) {
		t.Fatalf("cancelled sweep state: %+v", out)
	}
}

// TestWaitingHandlerReturnsWhenClientLeaves: a wait:true handler parks
// until its sweep ends, but not past its client. Cancelling the request
// while the sweep's one job is stalled must return the handler at once;
// the sweep stays listed and running, finishes when the job does, and its
// result is served.
func TestWaitingHandlerReturnsWhenClientLeaves(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := newExecServer(t, func(dist.JobPayload, func(smt.Snapshot)) smt.Results {
		close(started)
		<-release
		return smt.Results{}
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/sweep",
		strings.NewReader(`{"grid":[{"threads":2}],"opts":{"runs":1,"warmup":0,"measure":10},"wait":true}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(returned)
	}()
	<-started
	select {
	case <-returned:
		t.Fatalf("handler returned while its sweep was running: %d %s", rec.Code, rec.Body)
	default:
	}
	cancel()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still parked 10s after its client left")
	}

	var st sweepStatus
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/sweep-1", nil, &st); code != 200 || st.State != "running" {
		t.Fatalf("abandoned sweep: status %d, %+v", code, st)
	}
	close(release)
	sw, _ := s.lookup("sweep-1")
	<-sw.done
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/sweep-1", nil, &st); code != 200 || st.State != "done" || st.DoneJobs != 1 {
		t.Fatalf("abandoned sweep after its job finished: status %d, %+v", code, st)
	}
	var res exp.ExperimentResult
	if code := doJSON(t, "GET", ts.URL+st.ResultURL, nil, &res); code != 200 || res.Experiment != "inline" {
		t.Fatalf("abandoned sweep's result: status %d, %+v", code, res)
	}
}

// TestPartialOptsOverlayDefaults: opts overlay exp.DefaultOpts the same
// way grid configs overlay DefaultConfig — a client setting only runs
// keeps the default budgets instead of being rejected.
func TestPartialOptsOverlayDefaults(t *testing.T) {
	ts := newTestService(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"experiment": "fig7", "opts": {"runs": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	def := exp.DefaultOpts()
	if st.Opts.Runs != 1 || st.Opts.Measure != def.Measure ||
		st.Opts.Warmup != def.Warmup || st.Opts.Seed != def.Seed {
		t.Fatalf("partial opts not overlaid on defaults: %+v", st.Opts)
	}
	// Default budgets are slow; cancel rather than wait.
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil, nil)
}

// TestNullOptsTreatedAsAbsent: a literal "opts": null must behave like an
// omitted field (defaults), not panic the handler on a nil dereference.
func TestNullOptsTreatedAsAbsent(t *testing.T) {
	ts := newTestService(t)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(`{"experiment": "fig7", "opts": null}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var st sweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Opts != exp.DefaultOpts() {
		t.Fatalf("null opts did not fall back to defaults: %+v", st.Opts)
	}
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil, nil) // default budgets are slow
}

// TestConcurrentIdenticalSweepsSimulateOnce: two clients racing on the
// same sweep must compute each job once between them (in-flight dedup),
// so the cache hits across both sweeps account for every duplicate job.
func TestConcurrentIdenticalSweepsSimulateOnce(t *testing.T) {
	ts := newTestService(t)
	req := sweepRequest{Experiment: "fig7", Opts: tinyOpts(), Wait: true}
	results := make(chan sweepStatus, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var st sweepStatus
			doJSON(t, "POST", ts.URL+"/v1/sweep", req, &st)
			results <- st
		}()
	}
	var hits, total int
	for i := 0; i < 2; i++ {
		st := <-results
		if st.State != "done" {
			t.Fatalf("sweep did not finish: %+v", st)
		}
		hits += st.CacheHits
		total += st.TotalJobs
	}
	// 10 jobs between the two sweeps, 5 distinct content addresses: exactly
	// 5 simulations, the other 5 served as hits (waited-on or cached).
	if total != 10 || hits != 5 {
		t.Fatalf("%d hits over %d jobs; want 5 over 10 (each key simulated once)", hits, total)
	}
}

// TestFinishedSweepHistoryBounded: finished sweeps beyond the retention
// bound are evicted (oldest first) so a long-running service cannot grow
// without limit; evicted IDs answer 404.
func TestFinishedSweepHistoryBounded(t *testing.T) {
	srv := newServer(t, ServerOptions{Workers: 2})
	srv.maxHistory = 2
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		var st sweepStatus
		doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{Experiment: "fig7", Opts: tinyOpts(), Wait: true}, &st)
		if st.State != "done" {
			t.Fatalf("sweep %d: %+v", i, st)
		}
	}
	var all []sweepStatus
	doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &all)
	if len(all) != 2 || all[0].ID != "sweep-2" || all[1].ID != "sweep-3" {
		t.Fatalf("history not pruned oldest-first: %+v", all)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/sweep-1", nil, new(apiError)); code != 404 {
		t.Fatalf("evicted sweep answered %d, want 404", code)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestService(t)
	var out map[string]string
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &out); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, out)
	}
}

// TestCacheEndpoint: a sweep's result-cache traffic is on /metrics, the
// service's one counter surface; GET /v1/cache, the JSON view it replaced,
// is gone, while the per-key routes stay.
func TestCacheEndpoint(t *testing.T) {
	ts := newTestService(t)
	doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{Experiment: "fig7", Opts: tinyOpts(), Wait: true}, new(sweepStatus))
	m := scrape(t, ts.URL)
	if m["smtd_cache_memory_misses_total"] == 0 || m["smtd_cache_memory_entries"] == 0 {
		t.Fatalf("cache never populated: misses %g, entries %g", m["smtd_cache_memory_misses_total"], m["smtd_cache_memory_entries"])
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/cache", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/cache: status %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/cache/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/cache/nope: status %d, want 404 (a miss)", code)
	}
}

// TestMethodNotAllowed: the ServeMux method patterns must reject wrong
// verbs rather than dispatch them.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestService(t)
	resp, err := http.Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/sweep: status %d, want 405", resp.StatusCode)
	}
}

// TestSweepIDsAreSequential pins the ID scheme so status URLs are
// predictable for scripting clients.
func TestSweepIDsAreSequential(t *testing.T) {
	ts := newTestService(t)
	for i := 1; i <= 2; i++ {
		var st sweepStatus
		doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{Experiment: "fig7", Opts: tinyOpts(), Wait: true}, &st)
		if want := fmt.Sprintf("sweep-%d", i); st.ID != want {
			t.Fatalf("id %q, want %q", st.ID, want)
		}
	}
}

// Inline-grid configs carry policies by registered name — including the
// composite policies beyond the paper — and an unregistered name is
// rejected up front with the registry listing.
func TestInlineGridPolicyNames(t *testing.T) {
	ts := newTestService(t)
	req := sweepRequest{
		Name: "composite-mini",
		Grid: []gridPoint{
			{Series: "ICOUNT", Threads: 2,
				Config: json.RawMessage(`{"FetchPolicy": "ICOUNT", "FetchThreads": 2}`)},
			{Series: "HYBRID", Threads: 2,
				Config: json.RawMessage(`{"FetchPolicy": "ICOUNT+BRCOUNT", "FetchThreads": 2}`)},
		},
		Opts: tinyOpts(),
		Wait: true,
	}
	var st sweepStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep", req, &st); code != 200 {
		t.Fatalf("status %d: %+v", code, st)
	}
	if st.State != "done" || st.TotalJobs != 2 {
		t.Fatalf("composite sweep: %+v", st)
	}

	var apiErr struct {
		Error string `json:"error"`
	}
	bad := sweepRequest{
		Grid: []gridPoint{{Threads: 2,
			Config: json.RawMessage(`{"FetchPolicy": "NOT_A_POLICY"}`)}},
		Opts: tinyOpts(),
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep", bad, &apiErr); code != 400 {
		t.Fatalf("unknown policy accepted: status %d", code)
	}
	if !strings.Contains(apiErr.Error, "NOT_A_POLICY") {
		t.Fatalf("error does not name the bad policy: %q", apiErr.Error)
	}
}

// A sweep submitted with interval_cycles streams per-job progress through
// GET /v1/jobs/{id} while it runs, and the streamed sweep's result bytes
// equal a non-streamed sweep's.
func TestSweepIntervalStreaming(t *testing.T) {
	ts := newTestService(t)
	o := &exp.Opts{Runs: 2, Warmup: 1_000, Measure: 40_000, Seed: 1}
	grid := []gridPoint{{Series: "ICOUNT", Threads: 4,
		Config: json.RawMessage(`{"FetchPolicy": "ICOUNT", "FetchThreads": 2}`)}}

	var st sweepStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{
		Name: "streamed", Grid: grid, Opts: o, IntervalCycles: 200,
	}, &st); code != 202 {
		t.Fatalf("submit status %d: %+v", code, st)
	}

	sawRunning := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur sweepStatus
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &cur)
		for _, jp := range cur.Running {
			sawRunning = true
			if jp.Cycles <= 0 || jp.Snapshots <= 0 {
				t.Fatalf("malformed interval progress: %+v", jp)
			}
			if jp.IPC <= 0 || jp.Committed <= 0 {
				t.Fatalf("interval progress missing rates: %+v", jp)
			}
		}
		if cur.State == "done" {
			if len(cur.Running) != 0 {
				t.Fatalf("finished sweep still reports running jobs: %+v", cur.Running)
			}
			st = cur
			break
		}
		if cur.State == "failed" {
			t.Fatalf("sweep failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not finish: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	if !sawRunning {
		t.Fatal("never observed interval progress while the sweep ran")
	}

	// Byte-identity with a fresh, non-streamed service (no cache sharing).
	ts2 := newTestService(t)
	var st2 sweepStatus
	if code := doJSON(t, "POST", ts2.URL+"/v1/sweep", sweepRequest{
		Name: "streamed", Grid: grid, Opts: o, Wait: true,
	}, &st2); code != 200 {
		t.Fatalf("plain submit status %d", code)
	}
	get := func(base, url string) string {
		resp, err := http.Get(base + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return b.String()
	}
	if a, b := get(ts.URL, st.ResultURL), get(ts2.URL, st2.ResultURL); a != b {
		t.Fatalf("streamed sweep result differs from plain sweep:\n%s\nvs\n%s", a, b)
	}

	var apiErr struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sweep", sweepRequest{
		Experiment: "table3", Opts: tinyOpts(), IntervalCycles: -5,
	}, &apiErr); code != 400 {
		t.Fatalf("negative interval accepted: %d", code)
	}
}

// TestPprofMounted verifies the profiling surface is live on the service
// mux: the index page and a goroutine profile respond. (The handlers are
// mounted explicitly — the service never serves http.DefaultServeMux, so
// net/http/pprof's side-effect registration alone would be unreachable.)
func TestPprofMounted(t *testing.T) {
	ts := newTestService(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	// pprof clients symbolize by POSTing a PC list to /symbol (legacy
	// symbolz); a method-restricted route would 405 and break them.
	resp, err := http.Post(ts.URL+"/debug/pprof/symbol", "application/x-www-form-urlencoded",
		bytes.NewReader([]byte("0x1000")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /debug/pprof/symbol = %d, want 200", resp.StatusCode)
	}
}
