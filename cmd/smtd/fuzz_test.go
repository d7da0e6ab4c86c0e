package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/smt"
)

// newStubServer is a service whose jobs finish at once with zero results:
// everything a sweep request touches — body decode, grid materialization,
// expansion, keys, bookkeeping, result encoding — runs for real, and no
// cycle is simulated, so a fuzzed budget of 10^18 instructions costs
// nothing.
func newStubServer() *Server {
	return newExecServer(func(dist.JobPayload, func(smt.Snapshot)) smt.Results { return smt.Results{} })
}

// newExecServer is a service that runs every cache-missed job through run
// instead of the simulator.
func newExecServer(run dist.Exec) *Server {
	s := NewServer(2, 0)
	s.coord.Close()
	s.coord = dist.NewCoordinator(dist.Options{LocalSlots: 2, Exec: run})
	return s
}

// wideFetchPoint is the grid point that used to kill the service: 16
// contexts all fetched every cycle over an I-cache with the given bank
// count, so one cycle can pick more threads than the default eight banks
// ever allow. 32 banks is a valid machine; more must be refused.
func wideFetchPoint(tb testing.TB, banks int) gridPoint {
	tb.Helper()
	m := smt.DefaultConfig(16).Mem
	m.Caches[0].Banks = banks
	m.Caches[0].BankGranule = 4
	memJSON, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	return gridPoint{Threads: 16, Config: json.RawMessage(
		`{"FetchThreads":16,"FetchPerThread":1,"FetchTotal":16,"Mem":` + string(memJSON) + `}`)}
}

// FuzzInlineGrid: arbitrary bytes as a POST /v1/sweep body never panic and
// are answered 200, 202, 400 or 413. Each body is posted twice to a fresh
// server — against a cold sweep-plan memo, then against the memo the first
// post warmed — and the two answers must agree: same status, same error
// text, same sweep shape, same result bytes. An accepted body within the
// memo's bounds must be a miss, then a hit; any other touches the memo at
// most to miss.
func FuzzInlineGrid(f *testing.F) {
	grid := paperGrid(f)
	full, err := json.Marshal(sweepRequest{Name: "g", Grid: []gridPoint{grid[0], grid[len(grid)-1]},
		Opts: &exp.Opts{Runs: 2, Warmup: 10, Measure: 20, Seed: 3}, Wait: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	wide, err := json.Marshal(sweepRequest{Grid: []gridPoint{wideFetchPoint(f, 32)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide)
	for _, seed := range []string{
		`{"grid":[{"series":"RR","threads":2},{"series":"IC","threads":2,"config":{"FetchPolicy":"ICOUNT","FetchThreads":2}}],"opts":{"runs":1,"measure":100},"wait":true}`,
		`{"grid":[{"threads":4,"config":{"FetchPolicy":3,"Rename":{"ExcessRegs":90}}},{"threads":8,"config":{"FetchPolicy":3,"Rename":{"ExcessRegs":90}}}],"interval_cycles":50}`,
		`{"grid":[{"threads":2,"config":{"Threads":4}}]}`,
		`{"grid":[{"threads":2,"config":{"NoSuchField":1}}]}`,
		`{"grid":[{"threads":2,"config":{"IQSize":0}}]}`,
		`{"grid":[{"threads":2,"config":null}],"opts":null}`,
		`{"grid":[{"threads":0}]}`,
		`{"grid":[{"threads":1000000}]}`,
		`{"experiment":"table4","opts":{"runs":1,"warmup":0,"measure":1}}`,
		`{"experiment":"fig7","opts":{"runs":9000000000000000000}}`,
		`{"experiment":"fig7","grid":[{"threads":1}]}`,
		`{"name":"x","grid":[],"wait":true}`,
		`{"unknown":1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	for _, m := range oversizedMachines {
		f.Add([]byte(m.body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		s := newStubServer()
		defer s.Close()
		h := s.Handler()
		do := func(method, path string, body []byte) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}
		coldCode, coldReply := do("POST", "/v1/sweep", body)
		warmCode, warmReply := do("POST", "/v1/sweep", body)
		switch coldCode {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", coldCode, coldReply)
		}
		if warmCode != coldCode {
			t.Fatalf("cold memo answered %d, warm memo %d:\n%s\n%s", coldCode, warmCode, coldReply, warmReply)
		}
		memo := s.plans.Stats()
		if coldCode >= 400 {
			if !bytes.Equal(coldReply, warmReply) {
				t.Fatalf("cold and warm memos reject differently:\n%s\n%s", coldReply, warmReply)
			}
			if memo.Len != 0 || memo.Hits != 0 {
				t.Fatalf("a rejected body was stored or served from the memo: %+v", memo)
			}
			return
		}

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if left := s.Drain(ctx); left != 0 {
			t.Fatalf("%d accepted sweeps still running after a minute", left)
		}
		var cold, warm sweepStatus
		if err := json.Unmarshal(coldReply, &cold); err != nil {
			t.Fatalf("cold reply: %v: %s", err, coldReply)
		}
		if err := json.Unmarshal(warmReply, &warm); err != nil {
			t.Fatalf("warm reply: %v: %s", err, warmReply)
		}
		if cold.Experiment != warm.Experiment || cold.TotalJobs != warm.TotalJobs ||
			cold.Opts != warm.Opts || cold.IntervalCycles != warm.IntervalCycles {
			t.Fatalf("cold and warm memos accepted different sweeps:\n%s\n%s", coldReply, warmReply)
		}
		if want := (cache.Stats{Hits: 1, Misses: 1, Len: 1, Cap: planEntries}); len(body) <= planMaxBody && cold.TotalJobs <= planMaxJobs && memo != want {
			t.Fatalf("an accepted body within the memo's bounds left it at %+v, want %+v", memo, want)
		}
		coldCode, coldResult := do("GET", "/v1/jobs/"+cold.ID+"/result", nil)
		warmCode, warmResult := do("GET", "/v1/jobs/"+warm.ID+"/result", nil)
		if coldCode != http.StatusOK || warmCode != http.StatusOK || !bytes.Equal(coldResult, warmResult) {
			t.Fatalf("results differ (status %d / %d):\n%s\n%s", coldCode, warmCode, coldResult, warmResult)
		}
	})
}
