// Command pselinvd is the persistent selected-inversion service: an HTTP
// daemon that accepts inversion requests as JSON, caches symbolic analyses
// by sparsity-pattern fingerprint (so PEXSI-shaped workloads — many
// inversions of A+σI differing only in values — skip ordering, elimination
// tree construction and plan building after the first request), bounds
// concurrency with an engine pool plus admission control, and exposes
// Prometheus-style metrics and per-request Chrome traces.
//
// Endpoints:
//
//	POST /v1/selinv      run a selected inversion (JSON body, see below)
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/trace/   index of retained Chrome traces; /debug/trace/{id}
//	GET  /debug/obs/     index of retained observability reports; /debug/obs/{id}
//	GET  /debug/pprof/   Go profiling endpoints (only with -pprof)
//	GET  /healthz        liveness
//
// Example:
//
//	pselinvd -addr :8723 &
//	curl -s localhost:8723/v1/selinv -d '{
//	    "matrix": {"kind": "grid2d", "nx": 20, "ny": 20, "seed": 1},
//	    "shift": 0.5, "procs": 16, "scheme": "shifted", "diagonal": true
//	}'
//
// With -selftest the daemon instead starts on a loopback ephemeral port,
// drives itself through the cold/warm load-test workload, prints the
// report and exits non-zero unless warm same-pattern requests are at
// least 1.5x faster than cold ones — the plan cache's service-level check.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pselinv/internal/dense"
	"pselinv/internal/server"
)

var (
	flagAddr      = flag.String("addr", ":8723", "listen address")
	flagWorkers   = flag.Int("workers", 2, "concurrent inversion slots (engine pool size)")
	flagQueue     = flag.Int("queue", 8, "max requests waiting for a slot before 503")
	flagQueueWait = flag.Duration("queue-wait", 2*time.Second, "max time a request waits for a slot")
	flagCache     = flag.Int("cache", 32, "symbolic-analysis cache entries (LRU)")
	flagTraceRing = flag.Int("trace-ring", 16, "retained records of observed requests (each a Chrome trace plus, for \"obs\" requests, the report)")
	flagTimeout   = flag.Duration("timeout", 60*time.Second, "default per-request engine timeout")
	flagMaxN      = flag.Int("max-n", 20000, "largest accepted matrix dimension")
	flagMaxProcs  = flag.Int("max-procs", 256, "largest accepted simulated rank count")
	flagKernel    = flag.Int("kernel-workers", 0, "task-DAG offload slots for \"dag\": true requests, plus one (0 = GOMAXPROCS); dense kernels always run on the calling rank")
	flagSelftest  = flag.Bool("selftest", false, "run the cold/warm load test against an in-process server and exit")
	flagLoadtest  = flag.String("loadtest", "", "run the cold/warm load test against a running daemon at this base URL and exit")
	flagPprof     = flag.Bool("pprof", false, "expose Go profiling under /debug/pprof/ (engine rank goroutines carry pselinv_rank/pselinv_scheme pprof labels)")
)

// handler wraps the server mux, optionally mounting net/http/pprof. The
// profiling endpoints stay off by default: pselinvd may face untrusted
// clients and pprof exposes heap contents and allows CPU-burning profile
// captures.
func handler(srv *server.Server) http.Handler {
	h := srv.Handler()
	if !*flagPprof {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	flag.Parse()
	if *flagLoadtest != "" {
		os.Exit(loadtest(*flagLoadtest))
	}
	fmt.Printf("pselinvd: dense kernel workers: %d\n", dense.SetWorkers(*flagKernel))

	srv := server.New(server.Config{
		Workers:        *flagWorkers,
		MaxQueue:       *flagQueue,
		QueueWait:      *flagQueueWait,
		CacheSize:      *flagCache,
		TraceRing:      *flagTraceRing,
		DefaultTimeout: *flagTimeout,
		MaxN:           *flagMaxN,
		MaxProcs:       *flagMaxProcs,
	})

	if *flagSelftest {
		os.Exit(selftest(srv))
	}

	hs := &http.Server{Addr: *flagAddr, Handler: handler(srv)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("pselinvd: listening on %s (workers=%d queue=%d cache=%d)\n",
		*flagAddr, *flagWorkers, *flagQueue, *flagCache)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "pselinvd:", err)
		os.Exit(1)
	case <-ctx.Done():
		fmt.Println("pselinvd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "pselinvd: shutdown:", err)
			os.Exit(1)
		}
	}
}

// selftest serves on a loopback ephemeral port and runs the load
// generator against it, mirroring what `make loadtest` does against a
// separately started daemon.
func selftest(srv *server.Server) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pselinvd: selftest:", err)
		return 1
	}
	hs := &http.Server{Handler: handler(srv)}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "pselinvd: selftest serve:", err)
		}
	}()
	defer hs.Close()

	return loadtest("http://" + ln.Addr().String())
}

// loadtest drives the cold/warm workload against baseURL and enforces the
// 1.5x plan-cache SLO.
func loadtest(baseURL string) int {
	rep, err := server.RunLoadTest(server.LoadConfig{URL: baseURL, Trace: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pselinvd: loadtest:", err)
		return 1
	}
	fmt.Println(rep)
	if rep.TracePath != "" {
		fmt.Printf("last warm request traced: %s%s (load in chrome://tracing or ui.perfetto.dev)\n",
			baseURL, rep.TracePath)
	}
	if rep.Ratio < 1.5 {
		fmt.Fprintf(os.Stderr, "pselinvd: loadtest FAILED: plan-cache speedup %.2fx below the 1.5x SLO\n", rep.Ratio)
		return 1
	}
	fmt.Println("pselinvd: loadtest OK")
	return 0
}
