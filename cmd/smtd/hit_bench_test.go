package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exp"
	"repro/smt"
)

// paperGrid is the grid the repository benchmark's service workloads
// sweep: the paper's five fetch policies x {1.8, 2.8} partitioning x
// {2,4,6,8} threads plus the one-thread superscalar, 41 points, each
// carrying its full configuration the way bench/ sends it.
func paperGrid(tb testing.TB) []gridPoint {
	tb.Helper()
	var grid []gridPoint
	add := func(series string, threads int, cfg smt.Config) {
		raw, err := json.Marshal(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		grid = append(grid, gridPoint{Series: series, Label: series, Threads: threads, Config: raw})
	}
	for _, alg := range []smt.FetchAlg{smt.FetchRR, smt.FetchBRCount, smt.FetchMissCount, smt.FetchICount, smt.FetchIQPosn} {
		for _, num1 := range []int{1, 2} {
			for _, threads := range []int{2, 4, 6, 8} {
				cfg := smt.DefaultConfig(threads)
				cfg.FetchPolicy = alg
				cfg.FetchThreads = num1
				add(fmt.Sprintf("%s.%d.8", alg, num1), threads, cfg)
			}
		}
	}
	add("superscalar", 1, smt.Superscalar())
	return grid
}

// BenchmarkHitSweep is the layer number behind the benchmark's svc_warm
// hit phase: the 41-point grid primed once at tiny budgets, then one
// wait:true resubmission plus its result fetch per iteration. No simulator
// code runs in the loop, so ns/op is what a cache-hit sweep costs the
// service (and this client) end to end. same_body resubmits the primed
// bytes, which is what svc_warm does; fresh_name sends the same grid under
// a new name each time — a body the service has not seen, so it is decoded,
// validated, expanded and encoded again, and only the 41 jobs hit.
func BenchmarkHitSweep(b *testing.B) {
	s := newServer(b, ServerOptions{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const primedName = "bench-grid"
	primedBody, err := json.Marshal(sweepRequest{
		Name: primedName,
		Grid: paperGrid(b),
		Opts: &exp.Opts{Runs: 1, Warmup: 200, Measure: 400, Seed: 1},
		Wait: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(body []byte) (sweepStatus, []byte) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var st sweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.State != "done" {
			b.Fatalf("sweep: %v, status %+v", err, st)
		}
		resp, err = http.Get(ts.URL + st.ResultURL)
		if err != nil {
			b.Fatal(err)
		}
		result, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		return st, result
	}
	_, primed := sweep(primedBody)
	sent := 0 // never reset, so a fresh name stays fresh across the harness's reruns
	for _, fresh := range []bool{false, true} {
		name := "same_body"
		if fresh {
			name = "fresh_name"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, sentName := primedBody, []byte(primedName)
				if fresh {
					sent++
					sentName = fmt.Appendf(nil, "%s-%d", primedName, sent)
					body = bytes.Replace(primedBody, []byte(primedName), sentName, 1)
				}
				st, result := sweep(body)
				// The result carries the sweep's name in its experiment and
				// title; nothing else may differ.
				result = bytes.Replace(result, sentName, []byte(primedName), 2)
				if st.CacheHits != st.TotalJobs || !bytes.Equal(result, primed) {
					b.Fatalf("iteration %d: %d/%d cache hits, result equal to primed: %v",
						i, st.CacheHits, st.TotalJobs, bytes.Equal(result, primed))
				}
			}
		})
	}
}
