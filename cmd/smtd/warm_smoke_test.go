package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// warmGrid is the smoke sweep: two fetch policies at two machine widths,
// runs rotations each. measure is a knob because the snapshot key excludes
// it — two sweeps differing only in measure share warmup checkpoints while
// missing the result cache, which is exactly the restore path the smoke
// test must exercise.
func warmGrid(runs int, measure int64) string {
	return `{
		"name": "warm-smoke",
		"grid": [
			{"series": "RR.1.8", "threads": 2},
			{"series": "ICOUNT.2.8", "threads": 4, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}}
		],
		"opts": {"runs": ` + strconv.Itoa(runs) + `, "warmup": 2000, "measure": ` + strconv.FormatInt(measure, 10) + `, "seed": 1},
		"wait": true
	}`
}

func postWarmSweep(t *testing.T, base, body string) sweepStatus {
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

func warmSweepResult(t *testing.T, base string, st sweepStatus) string {
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

// TestWarmSweepSmoke is CI's warm-sweep smoke job, local half: run a
// 2-point sweep twice against one snapshot store, with the second sweep's
// measure budget doubled so it misses the result cache but shares every
// warmup checkpoint. The second sweep must restore (counter-asserted: zero
// new snapshot misses, every job a snapshot hit) and produce bytes
// identical to the same sweep on a cold server that simulates its warmups.
// The grid's two widths must also share their context traces: /metrics
// reports fewer trace builds than the widths sum to, and none for the
// second sweep.
func TestWarmSweepSmoke(t *testing.T) {
	s := newServer(t, ServerOptions{Workers: 2})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	first := postWarmSweep(t, ts.URL, warmGrid(1, 1000))
	if first.CacheHits != 0 {
		t.Fatalf("cold sweep reported %d cache hits", first.CacheHits)
	}
	afterCold := scrape(t, ts.URL)
	if got := checkpointCounts(afterCold); got != [3]float64{0, 2, 2} {
		t.Fatalf("after cold sweep: checkpoint hits/misses/puts %v, want 2 misses filled", got)
	}
	// The 2-thread machine runs the first two contexts of the 4-thread
	// one: four context traces serve both widths, not 2 + 4.
	if b, r := afterCold["smtd_trace_builds_total"], afterCold["smtd_trace_reuses_total"]; b != 4 || r != 2 {
		t.Fatalf("after cold sweep: %g trace builds, %g reuses; want 4 context builds shared across the widths 2 and 4", b, r)
	}

	second := postWarmSweep(t, ts.URL, warmGrid(1, 2000))
	if second.CacheHits != 0 {
		t.Fatalf("warm sweep was served from the result cache (%d hits); the restore path never ran", second.CacheHits)
	}
	afterWarm := scrape(t, ts.URL)
	// The counter assertion that no warmup was re-simulated: every probe of
	// the second sweep hit, and no new checkpoint was computed or stored.
	if got := checkpointCounts(afterWarm); got != [3]float64{2, 2, 2} {
		t.Fatalf("after warm sweep: checkpoint hits/misses/puts %v, want 2 restores and no new cold warmups", got)
	}
	// A different measure budget inside the length granule replays the
	// traces the first sweep built.
	if b, r := afterWarm["smtd_trace_builds_total"], afterWarm["smtd_trace_reuses_total"]; b != 4 || r != 8 {
		t.Fatalf("after warm sweep: %g trace builds, %g reuses; want the 4 context traces reused, none rebuilt", b, r)
	}

	// Byte-identity: a cold server running the second sweep from scratch
	// (simulating its warmups) must produce the same result bytes the
	// restored sweep produced.
	cold := newServer(t, ServerOptions{Workers: 2})
	t.Cleanup(cold.Close)
	cts := httptest.NewServer(cold.Handler())
	t.Cleanup(cts.Close)
	coldSecond := postWarmSweep(t, cts.URL, warmGrid(1, 2000))
	if a, b := warmSweepResult(t, ts.URL, second), warmSweepResult(t, cts.URL, coldSecond); a != b || len(a) == 0 {
		t.Fatalf("restored sweep result differs from cold sweep result:\n%s\nvs\n%s", a, b)
	}
}

// checkpointCounts reads the checkpoint store's hits, misses and puts from
// one /metrics scrape.
func checkpointCounts(m map[string]float64) [3]float64 {
	return [3]float64{m["smtd_snapshot_hits_total"], m["smtd_snapshot_misses_total"], m["smtd_snapshot_puts_total"]}
}

// TestWarmSweepDistSmoke is the distributed half: the same two-sweep
// sequence through a real coordinator + worker pair. The worker fills and
// restores warmup checkpoints through the coordinator's /v1/cache/{key},
// which counts them in the same store as its own slots' checkpoints: every
// job of the cold sweep is one checkpoint miss and one fill, every job of
// the warm sweep one restore, wherever it ran.
func TestWarmSweepDistSmoke(t *testing.T) {
	// One local slot against a two-slot worker, and six jobs a sweep: the
	// local slot runs one job at a time while the worker's parked poll
	// takes the next, so each sweep puts jobs on both sides (asserted
	// below). Which jobs land where varies run to run; the counts must not.
	const runs, jobs = 3, 6
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
	var wout, werr bytes.Buffer
	go run([]string{"-worker", "-join", base, "-workers", "2", "-name", "warm-worker"}, &wout, &werr, nil)

	deadline := time.Now().Add(10 * time.Second)
	for scrape(t, base)["smtd_dist_capacity"] < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered\nworker stdout: %s\nstderr: %s", wout.String(), werr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// sweep runs one sweep and returns the /metrics deltas it caused.
	sweep := func(measure int64) (sweepStatus, map[string]float64) {
		t.Helper()
		before := scrape(t, base)
		st := postWarmSweep(t, base, warmGrid(runs, measure))
		after := scrape(t, base)
		for k, v := range before {
			after[k] -= v
		}
		if st.TotalJobs != jobs {
			t.Fatalf("sweep of %d jobs, want %d", st.TotalJobs, jobs)
		}
		if r, l := after["smtd_dist_remote_done_total"], after["smtd_dist_local_done_total"]; r < 1 || r+l != jobs {
			t.Fatalf("want >= 1 job on the worker and %d in all, got %g remote / %g local", jobs, r, l)
		}
		return st, after
	}

	_, cold := sweep(1000)
	if got := checkpointCounts(cold); got != [3]float64{0, jobs, jobs} {
		t.Fatalf("cold dist sweep: checkpoint hits/misses/puts %v, want one miss and one fill per job (%d)", got, jobs)
	}
	second, warm := sweep(2000)
	if second.CacheHits != 0 {
		t.Fatalf("warm dist sweep was served from the result cache (%d hits)", second.CacheHits)
	}
	if got := checkpointCounts(warm); got != [3]float64{jobs, 0, 0} {
		t.Fatalf("warm dist sweep: checkpoint hits/misses/puts %v, want one restore per job (%d) and nothing cold", got, jobs)
	}
}
