package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// smokeSweepBody is the sweep the durability smoke replays: small enough
// to simulate in milliseconds, two distinct configs so a cache mixup
// would change the bytes.
const smokeSweepBody = `{
	"name": "durability-smoke",
	"grid": [
		{"series": "RR.1.8", "threads": 2},
		{"series": "ICOUNT.2.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}}
	],
	"opts": {"runs": 1, "warmup": 500, "measure": 1000, "seed": 1},
	"wait": true
}`

func postSweep(t *testing.T, base string) sweepStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(smokeSweepBody))
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

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b.String())
	}
	return b.String()
}

func distStatus(t *testing.T, base string) dist.Status {
	t.Helper()
	var st dist.Status
	if err := json.Unmarshal([]byte(getBody(t, base+"/v1/workers")), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// startSmtd launches the real binary and returns its base URL; the
// returned kill sends SIGKILL — a crash, not a drain.
func startSmtd(t *testing.T, bin string, args ...string) (base string, kill func()) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	kill = func() {
		if !killed {
			killed = true
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
	t.Cleanup(kill)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "smtd listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, kill
	case <-time.After(15 * time.Second):
		t.Fatal("smtd never reported its listen address")
		return "", nil
	}
}

// TestRestartDurabilitySmoke is the tentpole's crash-restart acceptance
// test, against the real binary: fill the durable cache with a sweep,
// SIGKILL the coordinator (a crash — no drain, no flush), restart it on
// the same -cache-dir, and the resubmitted sweep must be 100% cache hits
// with byte-identical results and zero re-simulations — all visible in
// /metrics as disk-tier traffic.
func TestRestartDurabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and crash-restarts the real binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "smtd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cacheDir := filepath.Join(tmp, "results")

	base, kill := startSmtd(t, bin, "-cache-dir", cacheDir)
	first := postSweep(t, base)
	if first.CacheHits != 0 {
		t.Fatalf("cold sweep reported %d cache hits", first.CacheHits)
	}
	firstResult := getBody(t, base+first.ResultURL)
	kill() // SIGKILL: the disk tier's atomic writes are all that survives

	base2, _ := startSmtd(t, bin, "-cache-dir", cacheDir)
	// The restarted process has read nothing yet: the disk tier is there
	// and has counted no lookup.
	boot := getBody(t, base2+"/metrics")
	for _, name := range []string{"smtd_cache_disk_hits_total", "smtd_cache_disk_misses_total", "smtd_cache_disk_corrupt_total"} {
		if v := metricLine(boot, name); v != "0" {
			t.Fatalf("disk tier before any lookup: %s = %q, want present and 0", name, v)
		}
	}

	second := postSweep(t, base2)
	if second.CacheHits != second.TotalJobs {
		t.Fatalf("post-restart sweep hit cache on %d of %d jobs", second.CacheHits, second.TotalJobs)
	}
	if secondResult := getBody(t, base2+second.ResultURL); secondResult != firstResult || len(firstResult) == 0 {
		t.Fatalf("restart changed the result bytes:\n%s\nvs\n%s", firstResult, secondResult)
	}
	// Zero re-simulations: nothing was ever handed to the scheduler.
	if st := distStatus(t, base2); st.Dispatched != 0 {
		t.Fatalf("post-restart sweep dispatched %d jobs, want 0", st.Dispatched)
	}
	// And the disk tier's hits are visible in the Prometheus exposition.
	metrics := getBody(t, base2+"/metrics")
	for _, want := range []string{"smtd_cache_disk_hits_total", "smtd_cache_disk_corrupt_total", "smtd_autoscale_wanted_slots"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, metrics)
		}
	}
	var diskHits float64
	fmt.Sscanf(metricLine(metrics, "smtd_cache_disk_hits_total"), "%g", &diskHits)
	if diskHits != float64(second.TotalJobs) {
		t.Fatalf("disk-tier hits in /metrics = %g, want %d\n%s", diskHits, second.TotalJobs, metricLine(metrics, "smtd_cache_disk_hits_total"))
	}
}

// metricLine returns the value field of an unlabeled metric sample.
func metricLine(exposition, name string) string {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	return ""
}

// TestServiceBodyLimits: oversized bodies on the service's write
// endpoints answer 413, and the endpoints still work afterwards.
func TestServiceBodyLimits(t *testing.T) {
	ts := newTestService(t)
	// A syntactically valid sweep whose one giant field forces the decoder
	// past the cap (pure junk would fail JSON parsing before the limit).
	big := `{"name":"` + strings.Repeat("x", maxSweepBody) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep: status %d, want 413", resp.StatusCode)
	}

	bigPut := `{"pad":"` + strings.Repeat("y", maxCachePutBody) + `"}`
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/k", strings.NewReader(bigPut))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized cache fill: status %d, want 413", resp.StatusCode)
	}
	// Sane traffic still flows.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/k", strings.NewReader(`{"ipc": 1}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("normal fill after oversized one: status %d, want 204", resp.StatusCode)
	}
}
