package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServiceSmoke boots the real binary entry point (run with an
// ephemeral port), submits a 2-point sweep over HTTP, resubmits it, and
// asserts the resubmission is served entirely from cache with identical
// bytes. CI runs exactly this as the service smoke job.
func TestServiceSmoke(t *testing.T) {
	ready := make(chan string, 1)
	var out, errb bytes.Buffer
	go run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, &errb, ready)

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatalf("server never came up\nstdout: %s\nstderr: %s", out.String(), errb.String())
	}

	post := func() sweepStatus {
		t.Helper()
		// An inline 2-point sweep: the smallest real request a client makes.
		body := `{
			"name": "smoke",
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
		t.Fatalf("cold sweep reported %d cache hits", first.CacheHits)
	}
	second := post()
	if second.CacheHits != second.TotalJobs {
		t.Fatalf("resubmission hit cache on %d of %d jobs", second.CacheHits, second.TotalJobs)
	}
	if a, b := result(first), result(second); a != b || len(a) == 0 {
		t.Fatalf("cached resubmission changed the result:\n%s\nvs\n%s", a, b)
	}
}
