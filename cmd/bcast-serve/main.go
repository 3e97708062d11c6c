// Command bcast-serve runs the broadcast-planning service: an HTTP/JSON
// server around the fingerprint-keyed planning engine. Repeated or
// near-duplicate platforms are answered from the plan cache (and warm solver
// sessions) instead of being re-solved from scratch.
//
// Endpoints:
//
//	POST /v1/plan      plan a platform (or mutate a cached one: base+deltas)
//	POST /v1/evaluate  compare tree heuristics against the optimum
//	POST /v1/churn     replay a churn trace (keep/repair/rebuild policies)
//	GET  /v1/metrics   cache and solver counters ("engine"), solve-stage
//	                   histograms, per-endpoint latency quantiles (JSON)
//	GET  /metrics      the same counters in Prometheus text exposition format
//	GET  /v1/trace     recent request traces (?outcome=hit|miss|shed|..., ?limit=)
//	GET  /healthz      liveness probe
//
// Errors are always structured {"error": ...} JSON — malformed bodies get
// 400s, handler panics recovered 500s, never an empty reply. Under overload
// the server stays predictable instead of queueing without bound: solves run
// under a deadline (-deadline, or per-request deadlineMs) and time out with a
// 504, and once the solve lanes plus the admission queue (-queue) are full,
// further cold requests are shed with a 429 and a Retry-After header. Clients
// may also pass "degraded": true to get an immediate heuristic plan while the
// LP refinement continues in the background. Use cmd/bcast-load to drive a
// running server with deterministic workload mixes and measure it.
//
// Observability: every request is traced (typed spans: cache lookup,
// admission, queue wait, LP solve with pivot/round/cut counts, degraded
// answer, background refinement, response write) into a bounded ring buffer
// (-trace-buffer) served by GET /v1/trace, and the response carries the
// request-scoped trace ID in an X-Bcast-Trace header. Request and panic logs
// are structured log/slog JSON on stderr with the same trace IDs. -pprof
// exposes net/http/pprof on a separate listener, kept off the service port so
// profiling endpoints are never reachable from the public address.
//
// Examples:
//
//	bcast-serve -addr :8080 -cache 512
//	bcast-serve -self-check
//	bcast-serve -pprof 127.0.0.1:6060
//	curl -s localhost:8080/v1/plan -d '{"platform": {...}, "source": 0}'
//	curl -s localhost:8080/metrics
//	curl -s 'localhost:8080/v1/trace?outcome=miss&limit=10'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"time"

	broadcast "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheSize   = flag.Int("cache", 256, "maximum number of cached plans")
		workers     = flag.Int("workers", 0, "maximum concurrent solves (0 = all CPUs)")
		queue       = flag.Int("queue", -1, "admission queue depth beyond the solve lanes; above it cold requests are shed with 429 (-1 = 4x workers, 0 = unbounded, never shed)")
		deadline    = flag.Duration("deadline", 2*time.Minute, "default solve deadline per request, overridable per request via deadlineMs (0 = none)")
		traceBuffer = flag.Int("trace-buffer", 512, "request traces retained for GET /v1/trace (0 disables tracing)")
		pprofAddr   = flag.String("pprof", "", "listen address for net/http/pprof (empty = profiling disabled); keep it on localhost")
		quiet       = flag.Bool("quiet", false, "disable structured request logging (panic logs are kept)")
		selfCheck   = flag.Bool("self-check", false, "plan a generated platform twice against the in-process engine, verify the cache hit, and exit")
	)
	flag.Parse()

	lanes := *workers
	if lanes <= 0 {
		lanes = runtime.NumCPU()
	}
	depth := *queue
	if depth < 0 {
		depth = 4 * lanes
	}
	cfg := service.Config{
		CacheSize:       *cacheSize,
		Workers:         *workers,
		QueueDepth:      depth,
		DefaultDeadline: *deadline,
	}
	if *traceBuffer > 0 {
		// The server traces in WallClock mode: per-process trace IDs minted
		// at the HTTP layer, timestamps and queue-wait spans recorded. The
		// deterministic mode exists for in-process replays (internal/load).
		cfg.Tracer = obs.NewTracer(obs.Options{Capacity: *traceBuffer, WallClock: true})
	}
	engine := service.New(cfg)

	if *selfCheck {
		if err := runSelfCheck(engine); err != nil {
			fmt.Fprintln(os.Stderr, "bcast-serve: self-check failed:", err)
			os.Exit(1)
		}
		return
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	handlerLogger := logger
	if *quiet {
		handlerLogger = nil
	}

	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pprofMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err.Error())
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandlerOpts(engine, service.HandlerOptions{Logger: handlerLogger}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		// Backstop only: solves are bounded by the engine's deadline (the
		// -deadline default or the request's deadlineMs), which produces a
		// structured 504. The write timeout merely severs a connection whose
		// handler somehow outlived that contract.
		WriteTimeout: 5 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	logger.Info("listening",
		"addr", *addr,
		"cache", *cacheSize,
		"workers", engine.Stats().Workers,
		"queue", depth,
		"deadline", deadline.String(),
		"traceBuffer", *traceBuffer,
		"pprof", *pprofAddr)
	err := srv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "bcast-serve:", err)
		os.Exit(1)
	}
	// ListenAndServe returns as soon as Shutdown starts; wait for the drain
	// of in-flight requests to actually finish before exiting.
	stop()
	<-drained
}

// runSelfCheck exercises the engine end to end without binding a port: plan
// a platform twice (the second answer must come from the cache with
// byte-identical plan bytes), then plan a one-delta mutation through the
// warm-session path, and print the engine counters — the overload-contract
// ones included, so a zero-shed healthy run is visibly zero-shed.
func runSelfCheck(engine *service.Engine) error {
	p, err := broadcast.GenerateScenario("cluster-of-clusters", 24, 1)
	if err != nil {
		return err
	}
	req := service.PlanRequest{Platform: p, Source: 0, Heuristic: broadcast.LPGrowTree}
	first, err := engine.Plan(req)
	if err != nil {
		return err
	}
	second, err := engine.Plan(req)
	if err != nil {
		return err
	}
	if !second.Cached {
		return fmt.Errorf("repeated request missed the cache")
	}
	if string(first.JSON) != string(second.JSON) {
		return fmt.Errorf("cache hit returned different plan bytes")
	}
	mut, err := engine.Plan(service.PlanRequest{
		Base:      first.Plan.Fingerprint,
		Deltas:    []broadcast.Delta{{Kind: broadcast.DeltaScaleLink, Link: 0, Factor: 1.5}},
		Source:    0,
		Heuristic: broadcast.LPGrowTree,
	})
	if err != nil {
		return err
	}
	if !mut.WarmResolved {
		return fmt.Errorf("delta request did not take the warm-session path")
	}
	engine.Drain()
	st := engine.Stats()
	fmt.Printf("self-check ok: throughput %.6f, mutated %.6f (warm resolve: %v); %d hits / %d misses, %d solves\n",
		first.Plan.Throughput, mut.Plan.Throughput, mut.WarmResolved, st.Hits, st.Misses, st.Solves)
	fmt.Printf("self-check overload counters: shed %d, queued %d, canceled %d, degraded %d, refines %d, refineFailures %d, evictionsDeferred %d, queueDepth %d\n",
		st.Shed, st.Queued, st.Canceled, st.Degraded, st.Refines, st.RefineFailures, st.EvictionsDeferred, st.QueueDepth)
	if second.TraceID != "" {
		fmt.Printf("self-check tracing: cache-hit trace %s recorded (%d traces buffered)\n",
			second.TraceID, engine.Tracer().Len())
	}
	return nil
}
