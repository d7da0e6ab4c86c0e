package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
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

// genSweepBody draws one POST /v1/sweep body: mostly inline grids over pool
// (duplicate points included) with every request field present or absent,
// then registry names, bodies each validation step refuses, bytes after the
// JSON value, and padding that takes the body past the memo's size cap.
func genSweepBody(r *rand.Rand, pool []gridPoint) []byte {
	switch r.Intn(12) {
	case 0:
		return []byte(fmt.Sprintf(`{"experiment":%q,"opts":{"runs":%d,"warmup":0,"measure":10},"wait":%v}`,
			[]string{"table4", "fig7", "no-such-experiment"}[r.Intn(3)], 1+r.Intn(2), r.Intn(2) == 0))
	case 1:
		bad := []string{
			`not json`, ``, `{"unknown":1}`, `{"name":"x","grid":[],"wait":true}`,
			`{"grid":[{"threads":0}]}`, `{"experiment":"fig7","grid":[{"threads":1}]}`,
			`{"grid":[{"threads":1}],"opts":{"runs":0}}`, `{"grid":[{"threads":1}],"opts":{"measure":-5}}`,
			`{"grid":[{"threads":1}],"opts":{"warmup":-1}}`, `{"grid":[{"threads":1}],"interval_cycles":-1}`,
			`{"experiment":"fig7","opts":{"runs":9000000000000000000}}`, `{"grid":[{"threads":1}],"opts":{"runs":1.5}}`,
		}
		return []byte(bad[r.Intn(len(bad))])
	}
	grid := make([]gridPoint, 1+r.Intn(5))
	for i := range grid {
		grid[i] = pool[r.Intn(len(pool))]
	}
	if r.Intn(4) == 0 {
		grid = append(grid, grid[0]) // a point asked for twice: one job key, two jobs
	}
	var b bytes.Buffer
	b.WriteString(`{"grid":[`)
	for i, g := range grid {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"series":%q,"label":%q,"threads":%d`, g.Series, g.Label, g.Threads)
		if len(g.Config) > 0 {
			fmt.Fprintf(&b, `,"config":%s`, g.Config)
		}
		b.WriteString("}")
	}
	b.WriteString("]")
	if r.Intn(2) == 0 {
		fmt.Fprintf(&b, `,"name":"g%d"`, r.Intn(3))
	}
	switch r.Intn(4) {
	case 0: // absent: the default budgets
	case 1:
		b.WriteString(`,"opts":null`)
	default:
		fmt.Fprintf(&b, `,"opts":{"runs":%d,"warmup":%d,"measure":%d,"seed":%d}`, 1+r.Intn(2), 10*r.Intn(3), 10+r.Intn(3), r.Intn(3))
	}
	if r.Intn(2) == 0 {
		b.WriteString(`,"wait":true`)
	}
	if r.Intn(4) == 0 {
		b.WriteString(`,"interval_cycles":50`)
	}
	b.WriteString("}")
	switch r.Intn(10) {
	case 0:
		b.WriteString(" trailing bytes")
	case 1:
		b.WriteString(`{"experiment":"fig7"}`) // a second value: never read
	case 2:
		b.WriteString(strings.Repeat(" ", planMaxBody))
	case 3:
		return append(bytes.Repeat([]byte("\n"), planMaxBody), b.Bytes()...)
	}
	return b.Bytes()
}

// keyLog sits between a server's in-flight dedup and its result tiers and
// records every key looked up: the job keys of the sweeps that ran, whether
// the jobs hit or missed.
type keyLog struct {
	cache.Getter[smt.Results]
	mu   sync.Mutex
	seen map[string]bool
}

func (k *keyLog) Get(key string) (smt.Results, bool) {
	k.mu.Lock()
	k.seen[key] = true
	k.mu.Unlock()
	return k.Getter.Get(key)
}

// take returns the distinct keys seen since the last call, sorted.
func (k *keyLog) take() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	keys := make([]string, 0, len(k.seen))
	for key := range k.seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	k.seen = map[string]bool{}
	return keys
}

// memoServer is a stub-executor server with a plan memo of the given size
// and a keyLog under its runners.
type memoServer struct {
	*Server
	h    http.Handler
	keys *keyLog
}

func newMemoServer(t *testing.T, entries int) *memoServer {
	s := newStubServer()
	t.Cleanup(s.Close)
	s.plans = cache.New[*sweepPlan](entries)
	keys := &keyLog{Getter: s.results.Top(), seen: map[string]bool{}}
	s.flight = cache.NewFlight[smt.Results](keys)
	return &memoServer{s, s.Handler(), keys}
}

// sweepOutcome is everything a client can tell about how a body was
// answered, plus the job keys its sweep looked up.
type sweepOutcome struct {
	code   int
	errMsg string   // a rejection's error text
	shape  string   // experiment, total jobs, opts, interval: what the status echoes
	keys   []string // distinct job keys, sorted
	result string   // the finished sweep's result bytes
}

func (o sweepOutcome) String() string {
	return fmt.Sprintf("status %d, error %q, sweep %s, %d keys %.80q, result %.200q", o.code, o.errMsg, o.shape, len(o.keys), o.keys, o.result)
}

func (o sweepOutcome) equal(p sweepOutcome) bool {
	return o.code == p.code && o.errMsg == p.errMsg && o.shape == p.shape &&
		slices.Equal(o.keys, p.keys) && o.result == p.result
}

func sweepShape(experiment string, jobs int, o exp.Opts, interval int64) string {
	return fmt.Sprintf("%s|%d|%+v|%d", experiment, jobs, o, interval)
}

// sweep posts body through the handler and, when it is accepted, waits for
// the sweep and fetches its result.
func (m *memoServer) sweep(t *testing.T, body []byte) sweepOutcome {
	t.Helper()
	rec := httptest.NewRecorder()
	m.h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body)))
	out := sweepOutcome{code: rec.Code}
	if rec.Code >= 400 {
		var e apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("status %d with an undecodable reply: %s", rec.Code, rec.Body)
		}
		out.errMsg = e.Error
		return out
	}
	var st sweepStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status %d with an undecodable reply: %s", rec.Code, rec.Body)
	}
	sw, ok := m.lookup(st.ID)
	if !ok {
		t.Fatalf("accepted sweep %s is not listed", st.ID)
	}
	<-sw.done
	out.shape = sweepShape(st.Experiment, st.TotalJobs, st.Opts, st.IntervalCycles)
	out.keys = m.keys.take()
	rec = httptest.NewRecorder()
	m.h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("result of %s: status %d: %s", st.ID, rec.Code, rec.Body)
	}
	out.result = rec.Body.String()
	return out
}

// reference answers body the way the service did before it had a memo: the
// decoder reads the size-capped stream itself, and the plan it yields is
// run as it is. m's memo is never consulted.
func (m *memoServer) reference(body []byte) sweepOutcome {
	capped := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxSweepBody)
	p, code, err := decodePlan(capped)
	if err != nil {
		return sweepOutcome{code: code, errMsg: err.Error()}
	}
	sw := m.startSweep(p)
	<-sw.done
	out := sweepOutcome{
		code:   http.StatusAccepted,
		shape:  sweepShape(p.exp.Name, len(p.jobs), p.opts, p.interval),
		keys:   m.keys.take(),
		result: string(sw.resultJSON),
	}
	if p.wait {
		out.code = http.StatusOK
	}
	return out
}

// TestPlanMemoDifferential: the sweep-plan memo is invisible. Random
// request bodies — valid and invalid grids, duplicate points, registry
// names, "opts":null, bytes after the JSON value, bodies past the memo's
// size cap and past the service's — are answered with no memo, by a cold
// memo, by a long-lived one (first pass, then again warm) and by one so
// small it evicts constantly; every variant must give the same status, the
// same error text, the same sweep over the same job keys and the same
// result bytes. A rejected body is rejected again on resubmission and never
// enters a memo.
func TestPlanMemoDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var points []gridPoint
	for len(points) < 120 {
		points = append(points, genGridPoint(r))
	}
	bodies := [][]byte{
		// Past the service's cap inside the value: 413. Past it after the
		// value: never read that far, accepted.
		[]byte(`{"experiment":"table4",` + strings.Repeat(" ", maxSweepBody) + `"wait":true}`),
		[]byte(`{"experiment":"table4","opts":{"runs":1,"measure":10}}` + strings.Repeat(" ", maxSweepBody)),
		// More jobs than a stored plan may hold.
		[]byte(fmt.Sprintf(`{"grid":[{"threads":1}],"opts":{"runs":%d,"measure":10}}`, planMaxJobs+1)),
	}
	fixed := len(bodies)
	for len(bodies) < 150 {
		bodies = append(bodies, genSweepBody(r, points))
	}

	ref := newMemoServer(t, planEntries)
	cold := newMemoServer(t, planEntries)
	long := newMemoServer(t, planEntries)
	tiny := newMemoServer(t, 2)
	var rejected, accepted int
	for iter := 0; iter < 400; iter++ {
		i := iter
		if iter >= fixed {
			i = r.Intn(len(bodies))
		}
		body := bodies[i]
		want := ref.reference(body)
		if want.code >= 400 {
			rejected++
		} else {
			accepted++
		}
		cold.plans = cache.New[*sweepPlan](planEntries)
		variants := []struct {
			name string
			m    *memoServer
		}{
			{"cold memo", cold},
			{"long-lived memo", long},
			{"long-lived memo, resubmitted", long},
			{"evicting memo", tiny},
		}
		for _, v := range variants {
			if got := v.m.sweep(t, body); !got.equal(want) {
				t.Fatalf("iteration %d, %s:\n got %s\nwant %s\nbody %.300q", iter, v.name, got, want, body)
			}
		}
	}
	if rejected < 50 || accepted < 50 {
		t.Fatalf("generator is lopsided: %d bodies rejected, %d accepted", rejected, accepted)
	}
	if st := long.plans.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("long-lived memo saw %+v; the test never exercised both hits and misses", st)
	}
	if st := tiny.plans.Stats(); st.Evictions == 0 || st.Len != 2 {
		t.Fatalf("the 2-entry memo: %+v", st)
	}
	if st := ref.plans.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("the reference consulted a memo: %+v", st)
	}

	// Errors are never cached, nor is anything past the memo's bounds: a
	// stored plan belongs to a body the reference accepts, within both
	// caps, and expands to the reference's job keys.
	for _, body := range bodies {
		p, stored := long.plans.Get(planKey(body))
		if !stored {
			continue
		}
		want := ref.reference(body)
		if want.code >= 400 || len(body) > planMaxBody || len(p.jobs) > planMaxJobs {
			t.Errorf("memo holds a plan for %.200q (reference: %s)", body, want)
			continue
		}
		seen := map[string]bool{}
		for _, j := range p.jobs {
			seen[j.Key(p.opts)] = true
		}
		if len(seen) != len(want.keys) {
			t.Errorf("stored plan has %d distinct job keys, reference %d: %.200q", len(seen), len(want.keys), body)
		}
		for _, k := range want.keys {
			if !seen[k] {
				t.Errorf("stored plan lacks job key %s: %.200q", k, body)
			}
		}
	}
}

// TestPlanMemoSkipsWhatItCannotBound: a body past planMaxBody (legal JSON,
// padded) and a sweep of more than planMaxJobs jobs are served correctly
// and not stored, so neither request size nor sweep size sets the memo's
// memory.
func TestPlanMemoSkipsWhatItCannotBound(t *testing.T) {
	m := newMemoServer(t, planEntries)
	small := []byte(`{"grid":[{"threads":2,"config":{"IQSize":64}}],"opts":{"runs":2,"measure":10},"wait":true}`)
	padded := append(bytes.Repeat([]byte(" "), planMaxBody), small...)
	want := m.reference(small)
	for pass := 0; pass < 2; pass++ {
		if got := m.sweep(t, padded); !got.equal(want) {
			t.Fatalf("pass %d: padded body answered\n%s\nwant %s", pass, got, want)
		}
	}
	if st := m.plans.Stats(); st.Len != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("oversized body touched the memo: %+v", st)
	}

	many := []byte(fmt.Sprintf(`{"grid":[{"threads":1}],"opts":{"runs":%d,"measure":10},"wait":true}`, planMaxJobs+1))
	want = m.reference(many)
	for pass := 0; pass < 2; pass++ {
		if got := m.sweep(t, many); !got.equal(want) {
			t.Fatalf("pass %d: %d-job sweep answered\n%s\nwant %s", pass, planMaxJobs+1, got, want)
		}
	}
	if st := m.plans.Stats(); st.Len != 0 || st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("a plan of %d jobs was stored or served: %+v", planMaxJobs+1, st)
	}
}

// TestPlanMemoEvictionHonesty: a plan hit adopts the plan's result bytes but
// never the jobs' results. On a server whose result cache is smaller than
// the sweep, a resubmission is a plan hit whose jobs mostly miss: it must
// say so, simulate them again, and still return the primed bytes.
func TestPlanMemoEvictionHonesty(t *testing.T) {
	s := NewServer(2, 16)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(sweepRequest{Name: "honest", Grid: paperGrid(t),
		Opts: &exp.Opts{Runs: 1, Warmup: 200, Measure: 400, Seed: 1}, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	first := postSweepBody(t, ts.URL, string(body))
	primed := getBody(t, ts.URL+first.ResultURL)
	before := scrape(t, ts.URL)

	second := postSweepBody(t, ts.URL, string(body))
	after := scrape(t, ts.URL)
	if after["smtd_sweep_plan_hits_total"] != 1 || after["smtd_sweep_plan_misses_total"] != 1 {
		t.Fatalf("resubmission was not a plan hit: hits %v, misses %v", after["smtd_sweep_plan_hits_total"], after["smtd_sweep_plan_misses_total"])
	}
	if second.TotalJobs != 41 || second.CacheHits >= second.TotalJobs {
		t.Fatalf("a 16-entry result cache served %d of %d jobs", second.CacheHits, second.TotalJobs)
	}
	resimulated := after["smtd_dist_local_done_total"] - before["smtd_dist_local_done_total"]
	if resimulated != float64(second.TotalJobs-second.CacheHits) {
		t.Fatalf("%d jobs missed the result cache but %v were simulated", second.TotalJobs-second.CacheHits, resimulated)
	}
	if got := getBody(t, ts.URL+second.ResultURL); got != primed {
		t.Fatal("the resubmission's result bytes differ from the primed ones")
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

// TestPlanMemoConcurrentSweeps (run under -race): identical and distinct
// inline-grid sweeps submitted at once share one memo, and after the first
// wave every sweep of a body runs from the same plan's job slice. Every
// sweep must finish, sweeps of the same body must return the same bytes
// whichever of them planned it, and no sweep may change a shared plan.
func TestPlanMemoConcurrentSweeps(t *testing.T) {
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
	const perBody, waves = 4, 2
	var stored [][]exp.Job // each plan's jobs as they were after the first wave
	var first []string     // each body's result bytes from the first wave
	for wave := 0; wave < waves; wave++ {
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
						t.Errorf("wave %d body %d client %d: status %d, %s", wave, k, c, code, raw)
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
			if wave == 0 {
				first = append(first, results[k][0])
			}
			for c := 0; c < perBody; c++ {
				if results[k][c] != first[k] {
					t.Errorf("wave %d body %d: client %d got different result bytes than the first sweep", wave, k, c)
				}
			}
		}
		if wave == 0 {
			for _, body := range bodies {
				p, ok := s.plans.Get(planKey(body))
				if !ok {
					t.Fatal("a swept body has no stored plan")
				}
				stored = append(stored, append([]exp.Job(nil), p.jobs...))
			}
		}
	}
	for k, body := range bodies {
		p, _ := s.plans.Get(planKey(body))
		if len(p.jobs) != len(stored[k]) {
			t.Fatalf("body %d: plan has %d jobs, had %d", k, len(p.jobs), len(stored[k]))
		}
		for i := range p.jobs {
			if p.jobs[i] != stored[k][i] {
				t.Errorf("body %d: a sweep changed shared job %d", k, i)
			}
		}
	}
	st := s.plans.Stats()
	// The second wave is all hits; the first is at least one miss per body.
	if st.Len != len(bodies) || st.Misses < int64(len(bodies)) || st.Hits < int64(len(bodies)*perBody) {
		t.Errorf("memo after %d sweeps of %d bodies: %+v", len(bodies)*perBody*waves, len(bodies), st)
	}
	m := scrape(t, ts.URL)
	if m["smtd_sweep_plan_entries"] != float64(st.Len) ||
		m["smtd_sweep_plan_hits_total"] != float64(st.Hits) ||
		m["smtd_sweep_plan_misses_total"] != float64(st.Misses) {
		t.Errorf("/metrics disagrees with the memo's stats %+v: entries %v hits %v misses %v", st,
			m["smtd_sweep_plan_entries"], m["smtd_sweep_plan_hits_total"], m["smtd_sweep_plan_misses_total"])
	}
}

// TestSweepLeavesPlanIntact: the memo hands the same stored plan to every
// sweep of its body, so nothing downstream — the runner, the coordinator,
// the simulator, result encoding — may change one. After sweeps have run
// from plan hits, the plan must still hold the jobs, with the configs,
// fingerprints and keys, it was stored with.
func TestSweepLeavesPlanIntact(t *testing.T) {
	s := NewServer(2, 0)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	grid := paperGrid(t)[:6]
	grid = append(grid, gridPoint{Series: "partial", Threads: 4,
		Config: json.RawMessage(`{"FetchPolicy":"ICOUNT","FetchThreads":2,"VarFetchRate":true}`)})
	body, err := json.Marshal(sweepRequest{Name: "intact", Grid: grid,
		Opts: &exp.Opts{Runs: 2, Warmup: 200, Measure: 400, Seed: 1}, Wait: true, IntervalCycles: 100})
	if err != nil {
		t.Fatal(err)
	}
	p, code, err := s.planFor(body, nil)
	if err != nil {
		t.Fatal(code, err)
	}
	was := *p
	jobs := append([]exp.Job(nil), p.jobs...)
	var keys, fps []string
	for _, j := range jobs {
		keys = append(keys, j.Key(p.opts))
		fps = append(fps, j.Spec.Config.Fingerprint())
	}

	var results []string
	for i := 0; i < 3; i++ { // a cold sweep, then two served by the result cache
		st := postSweepBody(t, ts.URL, string(body))
		results = append(results, getBody(t, ts.URL+st.ResultURL))
	}
	if st := s.plans.Stats(); st.Len != 1 || st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("the sweeps did not run from the stored plan: %+v", st)
	}
	if results[1] != results[0] || results[2] != results[0] {
		t.Fatal("sweeps of one plan returned different bytes")
	}
	now, ok := s.plans.Get(planKey(body))
	if !ok || now != p {
		t.Fatal("the memo no longer holds the plan it stored")
	}
	if now.exp.Name != was.exp.Name || now.exp.Title != was.exp.Title || now.exp.Shape != was.exp.Shape ||
		now.opts != was.opts || now.wait != was.wait || now.interval != was.interval || len(now.jobs) != len(jobs) {
		t.Fatalf("stored plan changed: %+v, was %+v", now, was)
	}
	for i, j := range now.jobs {
		if j != jobs[i] || j.Key(now.opts) != keys[i] || j.Spec.Config.Fingerprint() != fps[i] {
			t.Errorf("stored job %d changed: key %s, was %s", i, j.Key(now.opts), keys[i])
		}
	}
	if string(now.result) != results[0] {
		t.Error("the plan's adopted result is not what its sweeps returned")
	}
}
