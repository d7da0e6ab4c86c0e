package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/exp"
	"repro/smt"
)

// genGridPoint draws one inline-grid cell: a valid partial overlay (random
// fields, key order and spacing), a full config, or one of the ways a
// config is rejected — unknown field, wrong value type, Threads conflict,
// a machine Validate refuses.
func genGridPoint(r *rand.Rand) gridPoint {
	threads := 1 + r.Intn(8)
	g := gridPoint{Threads: threads}
	if r.Intn(4) == 0 {
		g.Series = fmt.Sprintf("s%d", r.Intn(3))
	}
	if r.Intn(4) == 0 {
		g.Label = fmt.Sprintf("l%d", r.Intn(3))
	}

	policies := []string{`"RR"`, `"BRCOUNT"`, `"MISSCOUNT"`, `"ICOUNT"`, `"IQPOSN"`, `"ICOUNT+BRCOUNT"`, `0`, `3`, `4`}
	var fields []string
	maybe := func(f string) {
		if r.Intn(3) == 0 {
			fields = append(fields, f)
		}
	}
	maybe(`"FetchPolicy":` + policies[r.Intn(len(policies))])
	maybe(fmt.Sprintf(`"FetchThreads":%d`, 1+r.Intn(min(2, threads))))
	maybe(fmt.Sprintf(`"FetchPerThread":%d`, 4<<r.Intn(2)))
	maybe(fmt.Sprintf(`"IQSize":%d`, 16<<r.Intn(3)))
	maybe(fmt.Sprintf(`"ITAG":%v`, r.Intn(2) == 0))
	maybe(fmt.Sprintf(`"BigQ":%v`, r.Intn(2) == 0))
	maybe(`"IssuePolicy":"OPT_LAST"`)
	maybe(fmt.Sprintf(`"Rename":{"ExcessRegs":%d}`, 80+10*r.Intn(4)))
	maybe(`"Mem":{"InfiniteBW":true}`)
	maybe(`"VarFetchRate":true`)
	maybe(fmt.Sprintf(`"Threads":%d`, threads))

	switch kind := r.Intn(10); kind {
	case 0: // absent config: the default machine
		return g
	case 1: // full config, the way bench/ and round-tripping clients send it
		cfg := smt.DefaultConfig(threads)
		cfg.FetchPolicy = smt.FetchICount
		cfg.FetchThreads = min(2, threads)
		cfg.IQSize = 16 << r.Intn(3)
		raw, err := json.Marshal(cfg)
		if err != nil {
			panic(err)
		}
		g.Config = raw
		return g
	case 2:
		fields = append(fields, `"NoSuchField":1`)
	case 3:
		fields = append(fields, `"IQSize":"big"`)
	case 4:
		fields = append(fields, fmt.Sprintf(`"Threads":%d`, threads+1+r.Intn(2)))
	case 5:
		bad := []string{
			fmt.Sprintf(`"FetchThreads":%d`, threads+1),
			`"IQSize":0`,
			`"FetchPolicy":"NOPE"`,
			`"DisambigBits":99`,
			fmt.Sprintf(`"Rename":{"Threads":%d}`, threads+1),
			`"Branch":{"Predictor":"no-such-predictor"}`,
		}
		fields = append(fields, bad[r.Intn(len(bad))])
	}
	r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	sep := []string{",", ", ", " ,\n  "}[r.Intn(3)]
	g.Config = json.RawMessage("{" + strings.Join(fields, sep) + "}")
	return g
}

// gridOutcome is everything inlineExperiment hands the engine, flattened
// for comparison: the error text, or every point with its fingerprint.
func gridOutcome(name string, grid []gridPoint, table *cache.Store[smt.Config]) string {
	e, err := inlineExperiment(name, grid, table)
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%+v\n", e.Name, e.Title, e.Shape)
	for _, p := range e.Points() {
		fmt.Fprintf(&b, "%s|%s|%d|%s|%+v\n", p.Series, p.Label, p.Threads, p.Config.Fingerprint(), p.Config)
	}
	return b.String()
}

// TestConfigTableDifferential: the decoded-config table is invisible.
// Random grids — valid partial and full configs, unknown fields, Threads
// conflicts, machines Validate refuses, the same bytes under different
// thread counts — go through inlineExperiment with no table, a cold
// table, a long-lived table (first pass, then again warm) and one so small
// it evicts constantly; every variant must produce the same configs and
// fingerprints or the same error text. A rejected config is rejected again
// on resubmission and never enters a table.
func TestConfigTableDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	var pool []gridPoint
	for len(pool) < 120 {
		g := genGridPoint(r)
		pool = append(pool, g)
		if len(g.Config) > 0 && r.Intn(3) == 0 {
			// Same bytes, different threads: a different machine, or a
			// Threads conflict where the other count was valid.
			twin := g
			twin.Threads = 1 + (g.Threads+r.Intn(7))%8
			pool = append(pool, twin)
		}
	}
	shared := cache.New[smt.Config](configTableEntries)
	tiny := cache.New[smt.Config](2)
	var rejected, accepted int
	for iter := 0; iter < 400; iter++ {
		grid := make([]gridPoint, 1+r.Intn(5))
		for i := range grid {
			grid[i] = pool[r.Intn(len(pool))]
		}
		name := []string{"", "grid"}[r.Intn(2)]
		want := gridOutcome(name, grid, nil)
		if strings.HasPrefix(want, "error: ") {
			rejected++
		} else {
			accepted++
		}
		variants := []struct {
			name  string
			table *cache.Store[smt.Config]
		}{
			{"cold table", cache.New[smt.Config](configTableEntries)},
			{"long-lived table", shared},
			{"long-lived table, resubmitted", shared},
			{"evicting table", tiny},
		}
		for _, v := range variants {
			if got := gridOutcome(name, grid, v.table); got != want {
				t.Fatalf("iteration %d, %s:\n got %s\nwant %s\ngrid %+v", iter, v.name, got, want, grid)
			}
		}
	}
	if rejected < 50 || accepted < 50 {
		t.Fatalf("generator is lopsided: %d grids rejected, %d accepted", rejected, accepted)
	}
	if st := shared.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("long-lived table saw %d hits / %d misses; the test never exercised both", st.Hits, st.Misses)
	}
	if st := tiny.Stats(); st.Evictions == 0 {
		t.Fatal("the 2-entry table never evicted")
	}

	// Errors are never cached: no rejected (threads, bytes) pair may sit in
	// the table, and every accepted one decodes to what the table holds.
	for _, g := range pool {
		if len(g.Config) == 0 {
			continue
		}
		want, err := gridConfig(nil, g.Threads, g.Config)
		got, stored := shared.Get(configTableKey(g.Threads, g.Config))
		switch {
		case err != nil && stored:
			t.Errorf("rejected config is in the table: threads %d, %s (%v)", g.Threads, g.Config, err)
		case err == nil && stored && got != want:
			t.Errorf("table holds a different config for threads %d, %s", g.Threads, g.Config)
		}
	}
}

// TestConfigTableSkipsOversizedConfigs: a config past configTableMaxBytes
// (legal JSON, padded) is decoded correctly and not stored, so request
// size never sets the table's memory.
func TestConfigTableSkipsOversizedConfigs(t *testing.T) {
	table := cache.New[smt.Config](configTableEntries)
	raw := json.RawMessage(`{"IQSize":64,` + strings.Repeat(" ", configTableMaxBytes) + `"ITAG":true}`)
	for pass := 0; pass < 2; pass++ {
		cfg, err := gridConfig(table, 2, raw)
		if err != nil || cfg.IQSize != 64 || !cfg.ITAG {
			t.Fatalf("pass %d: %+v, %v", pass, cfg, err)
		}
	}
	if st := table.Stats(); st.Len != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("oversized config touched the table: %+v", st)
	}
}

// postBody posts a raw sweep body and returns the status code (0 on a
// transport error, which raw then describes), the decoded sweep status and
// the raw reply. It reports nothing itself, so goroutines may call it.
func postBody(base string, body []byte) (code int, st sweepStatus, raw []byte) {
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, st, []byte(err.Error())
	}
	defer resp.Body.Close()
	if raw, err = io.ReadAll(resp.Body); err != nil {
		return 0, st, []byte(err.Error())
	}
	_ = json.Unmarshal(raw, &st) // an error reply is not a sweepStatus: st stays zero and callers check the code
	return resp.StatusCode, st, raw
}

// TestConfigTableConcurrentSweeps (run under -race): identical and
// distinct inline-grid sweeps submitted at once share one table. Every
// sweep must finish, and sweeps of the same body must return the same
// bytes whichever of them populated the table.
func TestConfigTableConcurrentSweeps(t *testing.T) {
	s := NewServer(2, 0)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var bodies [][]byte
	for k := 0; k < 3; k++ {
		grid := []gridPoint{
			{Series: "RR", Threads: 2, Config: json.RawMessage(`{"FetchThreads":1}`)},
			{Series: "ICOUNT", Threads: 2, Config: json.RawMessage(`{"FetchPolicy":"ICOUNT","FetchThreads":2}`)},
			{Series: "ICOUNT", Threads: 4, Config: json.RawMessage(`{"FetchPolicy":"ICOUNT","FetchThreads":2}`)},
			{Series: "own", Threads: 2, Config: json.RawMessage(fmt.Sprintf(`{"IQSize":%d}`, 16<<k))},
		}
		body, err := json.Marshal(sweepRequest{Name: fmt.Sprintf("g%d", k), Grid: grid,
			Opts: &exp.Opts{Runs: 2, Warmup: 200, Measure: 400, Seed: 1}, Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	const perBody = 4
	results := make([][]string, len(bodies))
	for k := range results {
		results[k] = make([]string, perBody)
	}
	var wg sync.WaitGroup
	for k := range bodies {
		for c := 0; c < perBody; c++ {
			wg.Add(1)
			go func(k, c int) {
				defer wg.Done()
				code, st, raw := postBody(ts.URL, bodies[k])
				if code != 200 || st.State != "done" || st.DoneJobs != 8 {
					t.Errorf("body %d client %d: status %d, %s", k, c, code, raw)
					return
				}
				results[k][c] = st.ResultURL
			}(k, c)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := range results {
		for c := range results[k] {
			results[k][c] = getBody(t, ts.URL+results[k][c])
		}
		for c := 1; c < perBody; c++ {
			if results[k][c] != results[k][0] {
				t.Errorf("body %d: client %d got different result bytes than client 0", k, c)
			}
		}
	}
	st := s.configs.Stats()
	if st.Len != 6 || st.Hits+st.Misses != int64(len(bodies)*perBody*4) || st.Hits == 0 {
		t.Errorf("table after %d sweeps of 4 points over 6 distinct configs: %+v", len(bodies)*perBody, st)
	}
	m := scrape(t, ts.URL)
	if m["smtd_config_table_entries"] != float64(st.Len) ||
		m["smtd_config_table_hits_total"] != float64(st.Hits) ||
		m["smtd_config_table_misses_total"] != float64(st.Misses) {
		t.Errorf("/metrics disagrees with the table's stats %+v: entries %v hits %v misses %v", st,
			m["smtd_config_table_entries"], m["smtd_config_table_hits_total"], m["smtd_config_table_misses_total"])
	}
}

// TestSweepLeavesTableConfigsIntact: the table hands the same stored
// config to every sweep that names it, so nothing downstream — expansion,
// the runner, the simulator, result encoding — may change one. After
// sweeps have run from table hits, each entry must still be the config,
// with the fingerprint, it was stored as.
func TestSweepLeavesTableConfigsIntact(t *testing.T) {
	s := NewServer(2, 0)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	grid := paperGrid(t)[:6]
	grid = append(grid, gridPoint{Series: "partial", Threads: 4,
		Config: json.RawMessage(`{"FetchPolicy":"ICOUNT","FetchThreads":2,"VarFetchRate":true}`)})
	if _, err := inlineExperiment("intact", grid, s.configs); err != nil {
		t.Fatal(err)
	}
	type stored struct {
		cfg smt.Config
		fp  string
	}
	before := map[string]stored{}
	for _, g := range grid {
		key := configTableKey(g.Threads, g.Config)
		cfg, ok := s.configs.Get(key)
		if !ok {
			t.Fatalf("config for %s/%d was not stored", g.Series, g.Threads)
		}
		before[key] = stored{cfg, cfg.Fingerprint()}
	}

	for _, measure := range []int64{400, 500} { // a cold sweep, then one that restores checkpoints
		body, err := json.Marshal(sweepRequest{Name: "intact", Grid: grid,
			Opts: &exp.Opts{Runs: 2, Warmup: 200, Measure: measure, Seed: 1}, Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		postSweepBody(t, ts.URL, string(body))
	}
	if st := s.configs.Stats(); st.Len != len(before) || st.Misses != int64(len(grid)) {
		t.Fatalf("the sweeps did not run from the stored configs: %+v", st)
	}
	for key, was := range before {
		now, ok := s.configs.Get(key)
		if !ok || now != was.cfg || now.Fingerprint() != was.fp {
			t.Errorf("stored config changed under %.40q...: fingerprint %s, was %s", key, now.Fingerprint(), was.fp)
		}
	}
}
