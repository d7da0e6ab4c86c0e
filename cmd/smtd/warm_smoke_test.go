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

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/snapshot"
)

// warmGrid is the smoke sweep: two fetch policies at two machine widths,
// one rotation. measure is a knob because the snapshot key excludes it — two sweeps differing only
// in measure share warmup checkpoints while missing the result cache, which
// is exactly the restore path the smoke test must exercise.
func warmGrid(measure int64) string {
	return `{
		"name": "warm-smoke",
		"grid": [
			{"series": "RR.1.8", "threads": 2},
			{"series": "ICOUNT.2.8", "threads": 4, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}}
		],
		"opts": {"runs": 1, "warmup": 2000, "measure": ` + strconv.FormatInt(measure, 10) + `, "seed": 1},
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
// The grid's two widths must also share their context traces: /v1/cache
// reports fewer trace builds than the widths sum to, and none for the
// second sweep.
func TestWarmSweepSmoke(t *testing.T) {
	s := newServer(t, ServerOptions{Workers: 2})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	first := postWarmSweep(t, ts.URL, warmGrid(1000))
	if first.CacheHits != 0 {
		t.Fatalf("cold sweep reported %d cache hits", first.CacheHits)
	}
	var traces snapshot.TraceStats
	snap := func() snapshot.Stats {
		var st cacheStatus
		if code := doJSON(t, "GET", ts.URL+"/v1/cache", nil, &st); code != 200 || st.Snapshots == nil {
			t.Fatalf("GET /v1/cache: status %d, snapshots block %v", code, st.Snapshots)
		}
		traces = st.Snapshots.Traces
		return st.Snapshots.Stats
	}
	afterCold := snap()
	if afterCold.Puts != 2 || afterCold.Misses != 2 || afterCold.Hits != 0 {
		t.Fatalf("after cold sweep: snapshot stats %+v, want 2 misses filled", afterCold)
	}
	// The 2-thread machine runs the first two contexts of the 4-thread
	// one: four context traces serve both widths, not 2 + 4.
	if traces.Builds != 4 || traces.Reuses != 2 {
		t.Fatalf("after cold sweep: trace stats %+v, want 4 context builds shared across the widths 2 and 4", traces)
	}

	second := postWarmSweep(t, ts.URL, warmGrid(2000))
	if second.CacheHits != 0 {
		t.Fatalf("warm sweep was served from the result cache (%d hits); the restore path never ran", second.CacheHits)
	}
	afterWarm := snap()
	// The counter assertion that no warmup was re-simulated: every probe of
	// the second sweep hit, and no new checkpoint was computed or stored.
	if afterWarm.Hits != 2 || afterWarm.Misses != afterCold.Misses || afterWarm.Puts != afterCold.Puts {
		t.Fatalf("after warm sweep: snapshot stats %+v, want 2 restores and no new cold warmups", afterWarm)
	}
	// A different measure budget inside the length granule replays the
	// traces the first sweep built.
	if traces.Builds != 4 || traces.Reuses != 8 {
		t.Fatalf("after warm sweep: trace stats %+v, want the 4 context traces reused, none rebuilt", traces)
	}

	// Byte-identity: a cold server running the second sweep from scratch
	// (simulating its warmups) must produce the same result bytes the
	// restored sweep produced.
	cold := newServer(t, ServerOptions{Workers: 2})
	t.Cleanup(cold.Close)
	cts := httptest.NewServer(cold.Handler())
	t.Cleanup(cts.Close)
	coldSecond := postWarmSweep(t, cts.URL, warmGrid(2000))
	if a, b := warmSweepResult(t, ts.URL, second), warmSweepResult(t, cts.URL, coldSecond); a != b || len(a) == 0 {
		t.Fatalf("restored sweep result differs from cold sweep result:\n%s\nvs\n%s", a, b)
	}
}

// TestWarmSweepDistSmoke is the distributed half: the same two-sweep
// sequence through a real coordinator + worker pair. The worker shares
// warmup checkpoints through the coordinator's /v1/cache endpoint, so the
// first sweep's cold warmups (computed on whichever slot ran them) are
// pulled back for the second sweep — cross-process checkpoint reuse,
// observed in the coordinator's snapshot memory tier.
func TestWarmSweepDistSmoke(t *testing.T) {
	// One local slot: of each sweep's two jobs, at least one goes to the
	// worker.
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

	status := func() dist.Status {
		t.Helper()
		var st dist.Status
		if code := doJSON(t, "GET", base+"/v1/workers", nil, &st); code != 200 {
			t.Fatalf("workers status %d", code)
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

	postWarmSweep(t, base, warmGrid(1000))
	snapshotMemStats := func() cache.Stats {
		var st cacheStatus
		if code := doJSON(t, "GET", base+"/v1/cache", nil, &st); code != 200 || st.Snapshots == nil {
			t.Fatalf("GET /v1/cache: status %d, snapshots block %v", code, st.Snapshots)
		}
		return st.Snapshots.Memory
	}
	if st := snapshotMemStats(); st.Len != 2 {
		t.Fatalf("after cold dist sweep: coordinator snapshot tier holds %d checkpoints, want 2", st.Len)
	}

	second := postWarmSweep(t, base, warmGrid(2000))
	if second.CacheHits != 0 {
		t.Fatalf("warm dist sweep was served from the result cache (%d hits)", second.CacheHits)
	}
	if st := snapshotMemStats(); st.Hits < 2 {
		t.Fatalf("coordinator snapshot tier hits = %d, want >= 2 (every job of the second sweep restores)", st.Hits)
	}
	// The worker really executed jobs, and every job ran somewhere once.
	if st := status(); st.RemoteDone < 1 || st.RemoteDone+st.LocalDone != 4 {
		t.Fatalf("want >= 1 remote and 4 in all, got %d remote / %d local", st.RemoteDone, st.LocalDone)
	}
}
