package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
)

// storageShapes are the two ways a coordinator's storage can be
// configured, each a superset of the one before.
var storageShapes = []string{"mem", "disk"}

// newServer is NewServer for tests: a construction error fails tb.
func newServer(tb testing.TB, opts ServerOptions) *Server {
	tb.Helper()
	s, err := NewServer(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func serveShape(t *testing.T, shape string) (*Server, string) {
	t.Helper()
	opts := ServerOptions{Workers: 2, CacheSize: 16}
	if shape != "mem" {
		opts.CacheDir = t.TempDir()
	}
	srv := newServer(t, opts)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// scrape reads /metrics into series name -> value. Names lose their label
// set, and a series that is declared ("# TYPE") but has no sample yet — the
// per-worker ones before a worker joins — reads 0.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, ln := range strings.Split(getBody(t, base+"/metrics"), "\n") {
		f := strings.Fields(ln)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			out[f[2]] += 0
		case len(f) == 2:
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("unparseable metrics line %q", ln)
			}
			name, _, _ := strings.Cut(f[0], "{")
			out[name] = v
		}
	}
	return out
}

// TestMetricsSeriesStable: dashboards, alerts and bench/ scrape /metrics
// by name, so no series may be renamed or dropped. Each line of
// testdata/metrics_series.txt is a series the service emitted before the
// tier stacks were unified, tagged with the least-configured shape that
// emitted it; that shape and every larger one must still emit it. Series
// may be added.
func TestMetricsSeriesStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	required := map[string][]string{} // shape -> series it must emit
	for _, ln := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		since, name, _ := strings.Cut(ln, " ")
		for i := len(storageShapes) - 1; i >= 0; i-- {
			required[storageShapes[i]] = append(required[storageShapes[i]], name)
			if storageShapes[i] == since {
				break
			}
		}
	}
	for _, shape := range storageShapes {
		_, base := serveShape(t, shape)
		have := scrape(t, base)
		if len(required[shape]) == 0 {
			t.Fatalf("golden lists nothing for shape %s", shape)
		}
		for _, name := range required[shape] {
			if _, ok := have[name]; !ok {
				t.Errorf("%s: series %s is gone from /metrics", shape, name)
			}
		}
	}
}

// jsonShape flattens a JSON document into its field paths in document
// order, each with its value's kind — the document minus the values.
func jsonShape(t *testing.T, doc []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	var out []string
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("at %s: %v", path, err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, _ := dec.Token()
				walk(path + "." + key.(string))
			}
			dec.Token()
		case json.Delim('['):
			out = append(out, path+" array")
			for dec.More() {
				walk(path + "[]")
			}
			dec.Token()
		default:
			out = append(out, fmt.Sprintf("%s %T", path, tok))
		}
	}
	walk("")
	return strings.Join(out, "\n")
}

// TestCacheStatusShape: GET /v1/cache on a fully configured coordinator is
// field for field — names, nesting, order, value kinds — the document in
// testdata/cache_status_disk.json, captured before the tier stacks were
// unified.
func TestCacheStatusShape(t *testing.T) {
	_, base := serveShape(t, "disk")
	golden, err := os.ReadFile("testdata/cache_status_disk.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonShape(t, []byte(getBody(t, base+"/v1/cache"))), jsonShape(t, golden); got != want {
		t.Fatalf("/v1/cache shape changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSweepCountersMonotonic: smtd_sweep_jobs_done_total and
// smtd_sweep_cache_hits_total are Prometheus counters, so no scrape may
// read lower than the one before — including when history eviction drops
// the sweeps the jobs belonged to.
func TestSweepCountersMonotonic(t *testing.T) {
	srv, base := serveShape(t, "mem")
	srv.maxHistory = 2
	const done, hit = "smtd_sweep_jobs_done_total", "smtd_sweep_cache_hits_total"
	var last map[string]float64
	var jobs, hits float64
	for i := 0; i < srv.maxHistory+2; i++ {
		// The first sweep is the biggest, so a sum over retained history
		// drops the moment it is evicted.
		o := tinyOpts()
		if i == 0 {
			o.Runs = 2
		}
		var st sweepStatus
		doJSON(t, "POST", base+"/v1/sweep", sweepRequest{Experiment: "fig7", Opts: o, Wait: true}, &st)
		if st.State != "done" {
			t.Fatalf("sweep %d: %+v", i, st)
		}
		jobs += float64(st.TotalJobs)
		hits += float64(st.CacheHits)
		now := scrape(t, base)
		if now[done] < last[done] || now[hit] < last[hit] {
			t.Errorf("after sweep %d: counters fell from %g/%g to %g/%g", i+1, last[done], last[hit], now[done], now[hit])
		}
		last = now
	}
	if hits == 0 || last[done] != jobs || last[hit] != hits {
		t.Fatalf("lifetime totals %g done / %g hits, want %g / %g over every sweep, evicted or not", last[done], last[hit], jobs, hits)
	}
}
