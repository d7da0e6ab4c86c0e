// Command smtd serves the experiment engine over HTTP: a simulation
// service for sweeping SMT fetch/issue-policy configurations (Tullsen et
// al., ISCA 1996) without re-simulating identical points.
//
//	smtd -addr :8080 -workers 8 -cache 4096
//
// Endpoints:
//
//	GET    /healthz             liveness probe
//	GET    /v1/version          build info (module, version, VCS revision)
//	GET    /v1/experiments      list the registry (the paper's tables/figures)
//	POST   /v1/sweep            submit a registry or inline-grid sweep
//	GET    /v1/jobs             list submitted sweeps
//	GET    /v1/jobs/{id}        streaming progress: jobs done, cache hits
//	GET    /v1/jobs/{id}/result canonical ExperimentResult JSON
//	DELETE /v1/jobs/{id}        cancel a running sweep
//	GET    /v1/cache            content-addressed result cache metrics (all tiers)
//	GET    /v1/workers          distributed worker registry + scheduler stats + autoscale signal
//	GET    /metrics             Prometheus text exposition of the above
//	GET    /debug/pprof/        live profiling (net/http/pprof)
//
// With -cache-dir the result cache gains a durable disk tier: results
// persist as content-addressed files written atomically, and a restarted
// coordinator warm-starts from the directory — a resubmitted sweep is
// 100% cache hits instead of re-simulation. With -peers (the full
// coordinator list, same on every member) plus -self, coordinators
// consistent-hash keys across the set and share one logical cache:
//
//	smtd -addr :8080 -cache-dir /var/lib/smtd \
//	     -self http://a:8080 -peers http://a:8080,http://b:8080
//
// The same binary also runs as a worker node that joins a coordinator and
// absorbs its sweep jobs (see internal/dist for the protocol); workers
// have no service listener, so profiling one is opt-in via -pprof:
//
//	smtd -worker -join http://coordinator:8080 -workers 8 -pprof localhost:6060
//
// Every job's results are stored under a content address — the machine
// configuration's fingerprint plus workload seed and budgets — so any
// sweep, by any client, on any node, reuses every simulation the cluster
// has already run. Determinism makes the reuse and the distribution
// exact: a cached or distributed sweep is byte-identical to a fresh local
// one.
//
// SIGTERM drains before exit: a coordinator finishes running sweeps, a
// worker finishes and delivers in-flight jobs, then deregisters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/snapshot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// drainTimeout bounds how long a SIGTERM'd coordinator waits for running
// sweeps before exiting anyway.
const drainTimeout = 30 * time.Second

// run is main with its dependencies injected. When ready is non-nil it
// receives the server's bound address once listening — tests use it with
// -addr 127.0.0.1:0 to grab an ephemeral port. (Worker mode has no
// listener and signals nothing.)
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("smtd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address (coordinator mode)")
		workers   = fs.Int("workers", 0, "simulation slots: local pool size, or slots offered in -worker mode (0 = GOMAXPROCS)")
		cacheSize = fs.Int("cache", 4096, "max cached job results in memory (bounded LRU, must be positive)")
		cacheDir  = fs.String("cache-dir", "", "durable result cache directory: results persist as content-addressed files and a restart warm-starts from them")
		peers     = fs.String("peers", "", "comma-separated FULL list of coordinator base URLs in the federation (every member passes the same list); keys consistent-hash across the set so N coordinators share one logical cache")
		self      = fs.String("self", "", "this coordinator's base URL as peers reach it (required with -peers)")
		worker    = fs.Bool("worker", false, "run as a worker node: join a coordinator instead of listening")
		join      = fs.String("join", "", "coordinator base URL to join (required with -worker)")
		name      = fs.String("name", "", "worker display name (default: hostname)")
		pprofAddr = fs.String("pprof", "", "worker mode: serve net/http/pprof on this address (e.g. localhost:6060); the coordinator serves /debug/pprof/ on its main listener")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "-workers %d is negative; use 0 for GOMAXPROCS\n", *workers)
		return 2
	}
	if *worker {
		if *join == "" {
			fmt.Fprintln(stderr, "-worker requires -join <coordinator url>")
			return 2
		}
		if *cacheDir != "" || *peers != "" || *self != "" {
			fmt.Fprintln(stderr, "-cache-dir/-peers/-self are coordinator flags; workers use the coordinator's cache")
			return 2
		}
		return runWorker(*join, *name, *workers, *pprofAddr, stdout, stderr)
	}
	if *join != "" {
		fmt.Fprintln(stderr, "-join only makes sense with -worker")
		return 2
	}
	if *pprofAddr != "" {
		fmt.Fprintln(stderr, "-pprof is for worker mode; the coordinator already serves /debug/pprof/ on -addr")
		return 2
	}
	if *cacheSize <= 0 {
		// Deliberately stricter than cmd/experiments (where -cache 0
		// disables reuse): a long-running service always caches, and an
		// unbounded store would grow RSS forever.
		fmt.Fprintf(stderr, "-cache %d must be positive; the service always runs a bounded result cache\n", *cacheSize)
		return 2
	}
	var peerList []string
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(stderr, "-peers requires -self <this coordinator's base URL>; rings only agree when every member knows its own place in the list")
			return 2
		}
		peerList = strings.Split(*peers, ",")
	} else if *self != "" {
		fmt.Fprintln(stderr, "-self only makes sense with -peers")
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "smtd:", err)
		return 1
	}
	server, err := NewServerWith(ServerOptions{
		Workers:   *workers,
		CacheSize: *cacheSize,
		CacheDir:  *cacheDir,
		Self:      *self,
		Peers:     peerList,
	})
	if err != nil {
		ln.Close()
		fmt.Fprintln(stderr, "smtd:", err)
		return 1
	}
	defer server.Close()
	srv := &http.Server{Handler: server.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "smtd listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "smtd:", err)
			return 1
		}
	case <-ctx.Done():
		// Restore default signal disposition immediately: a second
		// SIGTERM/Ctrl-C during the (up to 30s) drain force-kills instead
		// of being swallowed by the already-cancelled context.
		stop()
		// Drain before closing the listener: running sweeps may depend on
		// workers that reach us through it (polls, results), so the socket
		// must stay up while they finish.
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		fmt.Fprintln(stdout, "smtd: draining running sweeps")
		if left := server.Drain(drainCtx); left > 0 {
			fmt.Fprintf(stdout, "smtd: drain timed out with %d sweep(s) still running\n", left)
		}
		cancel()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		fmt.Fprintln(stdout, "smtd: shut down")
	}
	return 0
}

// runWorker joins a coordinator and serves simulation jobs until
// SIGTERM, then drains: in-flight jobs finish and deliver their results
// before the process exits. pprofAddr, when non-empty, serves
// net/http/pprof there — a worker has no service listener of its own,
// and profiling a loaded worker is how simulation-speed regressions on
// fleet nodes get diagnosed.
func runWorker(join, name string, slots int, pprofAddr string, stdout, stderr io.Writer) int {
	if name == "" {
		name, _ = os.Hostname()
		if name == "" {
			name = "worker"
		}
	}
	if pprofAddr != "" {
		ln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "smtd worker: pprof listener:", err)
			return 1
		}
		mux := http.NewServeMux()
		registerPprof(mux)
		go http.Serve(ln, mux)
		fmt.Fprintf(stdout, "smtd worker: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	w := dist.NewWorker(dist.WorkerOptions{
		Coordinator: join,
		Name:        name,
		Slots:       slots,
		// Warm acceleration mirrors the coordinator's: traces pre-decoded
		// once per context locally, and — Warm.Snapshots left nil —
		// checkpoints shared through the coordinator's cache endpoint (one
		// node's cold warmup is every node's restore). Both are
		// byte-invisible in results.
		Warm: exp.WarmEnv{Traces: snapshot.NewTraceCache(0)},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal starts the drain, restore default
		// disposition so a second signal force-kills a stuck drain.
		<-ctx.Done()
		stop()
	}()
	fmt.Fprintf(stdout, "smtd worker %q joining %s\n", name, join)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(stderr, "smtd worker:", err)
		return 1
	}
	fmt.Fprintf(stdout, "smtd worker: drained after %d job(s) and deregistered\n", w.JobsDone())
	return 0
}
