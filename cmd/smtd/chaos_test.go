package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/resilience"
	"repro/internal/resilience/faults"
	"repro/internal/snapshot"
)

// chaosSweepBody is the sweep the chaos suite replays: four distinct
// configs x two runs = 8 jobs, small enough to simulate in milliseconds,
// with interval streaming on so snapshot posts cross the faulty wire too.
const chaosSweepBody = `{
	"name": "chaos",
	"grid": [
		{"series": "RR.1.8", "threads": 2},
		{"series": "ICOUNT.2.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT", "FetchThreads": 2}},
		{"series": "BRCOUNT.1.8", "threads": 2, "config": {"FetchPolicy": "BRCOUNT"}},
		{"series": "ICOUNT.1.8", "threads": 2, "config": {"FetchPolicy": "ICOUNT"}}
	],
	"opts": {"runs": 2, "warmup": 400, "measure": 800, "seed": 3},
	"interval_cycles": 2000,
	"wait": true
}`

// chaosSeed returns the suite's fault-schedule seed: CHAOS_SEED when set
// (reproducing a CI failure locally is one env var), else a fixed
// default. Always logged, so every failure report carries its schedule.
func chaosSeed(t *testing.T) uint64 {
	seed := uint64(0x5eed_c4a0_5000_0001)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %#x (rerun with CHAOS_SEED=%#x)", seed, seed)
	return seed
}

// chaosNode is one in-process coordinator served on a real TCP port.
type chaosNode struct {
	server *Server
	http   *http.Server
	base   string
}

func (n *chaosNode) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	n.http.Shutdown(ctx)
	cancel()
	n.server.Close()
}

// serveChaosNode builds a Server on opts and serves it on ln.
func serveChaosNode(t *testing.T, ln net.Listener, opts ServerOptions) *chaosNode {
	t.Helper()
	s, err := NewServerWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return &chaosNode{server: s, http: hs, base: "http://" + ln.Addr().String()}
}

// listenLocal opens a real listener whose address is known before any
// server boots — federation members need the full URL list up front.
func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// postSweepBody submits body to base and requires a finished sweep.
func postSweepBody(t *testing.T, base, body string) sweepStatus {
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

// corruptEveryFourth is the disk tier's chaos write transform: a
// deterministic ~25% of writes lose bytes to NULs, which the tier's
// checksums must catch and serve as misses.
func corruptEveryFourth(key string, body []byte) []byte {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	if h%4 != 0 || len(body) == 0 {
		return body
	}
	mangled := append([]byte(nil), body...)
	for i := len(mangled) / 3; i < len(mangled)/3+8 && i < len(mangled); i++ {
		mangled[i] = 0
	}
	return mangled
}

// TestChaosFederatedSweepByteIdentical is the chaos suite's core
// acceptance test: a 2-coordinator, 2-worker federated sweep with faults
// injected on every outbound edge — worker registration, polls, result
// and snapshot posts, cache peeks and fills, federation probes and
// forwards, plus corrupted disk writes — must still complete, and its
// result bytes must be identical to a fault-free run. The resilience
// layer may retry, trip breakers, shed fills, and re-simulate as much as
// it likes; what it may never do is change bytes, wedge the sweep, stall
// a drain, or leak goroutines.
func TestChaosFederatedSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped chaos run")
	}
	seed := chaosSeed(t)

	// Fault-free baseline on a pristine server, torn down before the
	// goroutine watermark is taken.
	var baseline string
	{
		s := NewServer(2, 0)
		ln := listenLocal(t)
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		st := postSweepBody(t, "http://"+ln.Addr().String(), chaosSweepBody)
		baseline = getBody(t, "http://"+ln.Addr().String()+st.ResultURL)
		hs.Close()
		s.Close()
	}
	if len(baseline) == 0 {
		t.Fatal("empty baseline result")
	}
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	gBefore := runtime.NumGoroutine()

	// Two federated coordinators; their peer traffic crosses a faulty
	// transport with every response-mangling flavor on the cache surface.
	lnA, lnB := listenLocal(t), listenLocal(t)
	baseA, baseB := "http://"+lnA.Addr().String(), "http://"+lnB.Addr().String()
	members := []string{baseA, baseB}
	const peerSpec = "/v1/cache=err@0.15,latency:5ms@0.2,code:500@0.1,truncate@0.1,corrupt@0.1"
	peerBase := &http.Transport{}
	peerFaults, err := faults.New(peerSpec, seed^0xA, peerBase)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ln net.Listener, self string) *chaosNode {
		return serveChaosNode(t, ln, ServerOptions{
			Workers:    2,
			CacheSize:  4096,
			CacheDir:   t.TempDir(),
			Self:       self,
			Peers:      members,
			PeerClient: &http.Client{Transport: peerFaults, Timeout: 2 * time.Second},
		})
	}
	nodeA, nodeB := mk(lnA, baseA), mk(lnB, baseB)
	// Chaos on the durable tier too: a deterministic slice of disk writes
	// is corrupted; the checksums must turn each into a miss, never a
	// wrong value.
	nodeA.server.results.SetWriteTransform(corruptEveryFourth)
	nodeA.server.snaps.SetWriteTransform(corruptEveryFourth)

	// Two workers, one per coordinator, every protocol edge faulted.
	// Response-mangling faults (truncate, corrupt) stay off /v1/work:
	// they are harmless on the cache surface (a garbled body is a miss)
	// but a garbled poll response would strand granted leases until TTL
	// expiry, which slows the test without testing anything new —
	// pre-send faults (err, code) already cover "the poll never landed".
	const workerSpec = "/v1/work/next=err@0.08,latency:5ms@0.15;" +
		"/v1/work/result=err@0.1,latency:5ms@0.15,code:503@0.1;" +
		"/v1/work/snapshot=err@0.2,code:500@0.1;" +
		"/v1/cache=err@0.2,latency:5ms@0.2,code:500@0.1,truncate@0.15,corrupt@0.15;" +
		"/v1/workers=err@0.1,latency:2ms@0.1"
	wctx, wcancel := context.WithCancel(context.Background())
	var wdone sync.WaitGroup
	var workerBases []*http.Transport
	var workerFaults []*faults.Transport
	for i, join := range []string{baseA, baseB} {
		base := &http.Transport{}
		ft, err := faults.New(workerSpec, seed^uint64(0xB0+i), base)
		if err != nil {
			t.Fatal(err)
		}
		workerBases = append(workerBases, base)
		workerFaults = append(workerFaults, ft)
		w := dist.NewWorker(dist.WorkerOptions{
			Coordinator: join,
			Name:        fmt.Sprintf("chaos%d", i),
			Slots:       2,
			Backoff:     20 * time.Millisecond,
			DrainGrace:  2 * time.Second,
			Client:      &http.Client{Transport: ft, Timeout: 15 * time.Second},
			Warm:        exp.WarmEnv{Traces: snapshot.NewTraceCache(0)},
		})
		wdone.Add(1)
		go func() {
			defer wdone.Done()
			if err := w.Run(wctx); err != nil {
				t.Errorf("worker run: %v", err)
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("workers to register", func() bool {
		return nodeA.server.coord.Capacity() >= 2 && nodeB.server.coord.Capacity() >= 2
	})

	// The sweep through A must complete and match the baseline bytes.
	first := postSweepBody(t, baseA, chaosSweepBody)
	if got := getBody(t, baseA+first.ResultURL); got != baseline {
		t.Fatalf("faulted sweep changed result bytes:\n%s\nvs baseline\n%s", got, baseline)
	}
	// Resubmitted through B — served from the federated cache where the
	// faults allowed fills through, re-simulated where they did not —
	// the bytes must not move either way.
	second := postSweepBody(t, baseB, chaosSweepBody)
	if got := getBody(t, baseB+second.ResultURL); got != baseline {
		t.Fatalf("cross-peer resubmission changed result bytes:\n%s\nvs baseline\n%s", got, baseline)
	}

	// The schedule really fired: at least one fault of some kind landed
	// on the worker edges (an all-passed run means the spec went inert).
	var injected int64
	for _, ft := range workerFaults {
		fs := ft.Stats()
		injected += fs.Errors + fs.Delays + fs.Codes + fs.Truncates + fs.Corrupts
	}
	if injected == 0 {
		t.Fatal("no worker-edge faults injected; the chaos schedule is inert")
	}
	t.Logf("worker-edge faults injected: %d; peer-edge stats: %+v", injected, peerFaults.Stats())

	// Drain both workers against the (still live, still faulty)
	// coordinators: bounded, clean exit.
	start := time.Now()
	wcancel()
	drained := make(chan struct{})
	go func() { wdone.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.Fatal("worker drain not bounded under faults")
	}
	t.Logf("worker drain took %v", time.Since(start))

	nodeA.shutdown()
	nodeB.shutdown()
	peerBase.CloseIdleConnections()
	for _, b := range workerBases {
		b.CloseIdleConnections()
	}
	http.DefaultClient.CloseIdleConnections()

	// No goroutine leaks: everything the cluster spawned — forwarders,
	// heartbeats, executors, janitors, parked polls — must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= gBefore+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before cluster, %d after teardown\n%s",
				gBefore, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosDownPeerBoundedByBreaker: a federation member that blackholes
// TCP (accepts, never answers) must not stall sweeps on its owner's
// shard — after the breaker trips, probes are instant local misses, so
// the sweep completes within a small multiple of the fault-free time,
// and the open breaker is visible in /metrics and /v1/workers.
func TestChaosDownPeerBoundedByBreaker(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive chaos run")
	}
	// Fault-free baseline timing on an identical solo server.
	var fair time.Duration
	{
		s := NewServer(2, 0)
		ln := listenLocal(t)
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		start := time.Now()
		postSweepBody(t, "http://"+ln.Addr().String(), chaosSweepBody)
		fair = time.Since(start)
		hs.Close()
		s.Close()
	}

	// The blackhole peer: a listener that accepts and then says nothing,
	// the worst failure mode — connects succeed, so only timeouts (not
	// refusals) surface it, and every un-broken probe pays one in full.
	bln := listenLocal(t)
	var bmu sync.Mutex
	var bconns []net.Conn
	go func() {
		for {
			c, err := bln.Accept()
			if err != nil {
				return
			}
			bmu.Lock()
			bconns = append(bconns, c)
			bmu.Unlock()
		}
	}()
	defer func() {
		bln.Close()
		bmu.Lock()
		for _, c := range bconns {
			c.Close()
		}
		bmu.Unlock()
	}()
	deadPeer := "http://" + bln.Addr().String()

	ln := listenLocal(t)
	self := "http://" + ln.Addr().String()
	node := serveChaosNode(t, ln, ServerOptions{
		Workers:     2,
		CacheSize:   4096,
		Self:        self,
		Peers:       []string{self, deadPeer},
		PeerClient:  &http.Client{Timeout: 250 * time.Millisecond},
		PeerBreaker: resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour},
	})
	defer node.shutdown()

	start := time.Now()
	postSweepBody(t, self, chaosSweepBody)
	elapsed := time.Since(start)
	// Generous but damning: without the breaker, every probe and fill on
	// the dead owner's ~half of the keyspace rides a 250ms timeout (x2
	// fill attempts), which on this sweep is seconds of serialized stall.
	bound := 5*fair + 3*time.Second
	if elapsed > bound {
		t.Fatalf("down-peer sweep took %v (fault-free %v, bound %v); the breaker is not short-circuiting", elapsed, fair, bound)
	}
	t.Logf("down-peer sweep %v vs fault-free %v", elapsed, fair)

	// The trip is observable: /metrics exposes the open breaker and its
	// trip count, /v1/workers carries the same snapshot.
	metrics := getBody(t, self+"/metrics")
	openLine := fmt.Sprintf("smtd_breaker_state{peer=%q} 2", deadPeer)
	if !strings.Contains(metrics, openLine) {
		t.Fatalf("/metrics missing %s:\n%s", openLine, metrics)
	}
	if !strings.Contains(metrics, "smtd_breaker_opens_total") || !strings.Contains(metrics, "smtd_cache_peer_breaker_skips_total") {
		t.Fatalf("/metrics missing breaker counters:\n%s", metrics)
	}
	st := distStatus(t, self)
	var open bool
	for _, b := range st.Breakers {
		if b.Peer == deadPeer && b.State == "open" && b.Opens >= 1 {
			open = true
		}
	}
	if !open {
		t.Fatalf("/v1/workers does not report the open breaker: %+v", st.Breakers)
	}

	// smt's determinism postscript: the down peer never changed bytes
	// either — resubmission is all cache hits with identical results.
	resub := postSweepBody(t, self, chaosSweepBody)
	if resub.CacheHits != resub.TotalJobs {
		t.Fatalf("resubmission hit cache on %d of %d jobs", resub.CacheHits, resub.TotalJobs)
	}
}
