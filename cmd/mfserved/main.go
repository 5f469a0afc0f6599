// Command mfserved runs the synthesis service: an HTTP API in front of
// the paper's deterministic flow with a bounded job queue, a worker pool
// and a content-addressed result cache.
//
// Usage:
//
//	mfserved                          # serve on :8080
//	mfserved -addr :9000 -workers 4   # custom listener and pool size
//	mfserved -log-level debug         # verbose structured logs
//	mfserved -debug-addr :6060        # pprof on a separate listener
//	mfserved -selfbench 16            # in-process service benchmark, exit
//	mfserved -selfbench 16 -chaos 7   # same benchmark under fault injection
//	mfserved -journal jobs.journal    # crash-safe job journal (replay on start)
//	mfserved -self http://10.0.0.1:8080 -peers http://10.0.0.1:8080,http://10.0.0.2:8080
//	                                  # cluster mode: consistent-hash routing + cache peering
//	mfserved -cluster-selfbench 3     # spawn a 1..3-node local cluster ladder, report, exit
//	mfserved -version                 # print build info, exit
//
// API summary (see README "Service" for a walkthrough):
//
//	POST /v1/synthesize         submit a request → 202 job, 200 cache hit,
//	                            429 when the queue is full
//	GET  /v1/jobs/{id}          job status, progress and metrics
//	GET  /v1/jobs/{id}/solution the solution document
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text format
//	GET  /metrics.json          the same state as expvar JSON
//
// The debug listener (-debug-addr) serves net/http/pprof on its own mux,
// so profiling endpoints are never exposed on the API address.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "synthesis worker count (default: CPU count)")
		queueCap  = flag.Int("queue", 64, "bounded job-queue capacity (beyond it: HTTP 429)")
		cacheMB   = flag.Int64("cache-mb", 256, "result-cache bound in MiB")
		jobTO     = flag.Duration("job-timeout", 2*time.Minute, "per-job synthesis deadline (<0 disables)")
		retain    = flag.Int("retain", 4096, "finished jobs kept pollable")
		selfbench = flag.Int("selfbench", 0, "benchmark the service in-process with N concurrent Synthetic1 requests, print a JSON report and exit")
		benchOut  = flag.String("o", "", "selfbench: write the report to this file instead of stdout")
		chaosSeed = flag.Uint64("chaos", 0, "selfbench: arm the default fault-injection chaos plan with this seed and report degraded vs failed outcomes (0 disables)")
		jrnlPath  = flag.String("journal", "", "crash-safe job journal path; pending jobs from a previous process are resubmitted on start (empty disables)")
		sloSpec   = flag.String("slo", "", `latency objectives like "p99=250ms,p95=100ms"; enables the SLO metric families (selfbench default: `+defaultSLOSpec+`)`)
		flightN   = flag.Int("flight", 256, "flight-recorder ring size: recent completed requests kept for /debug/requests and the SIGQUIT dump")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (separate mux; empty disables)")
		version   = flag.Bool("version", false, "print version and exit")

		// Cluster mode (see DESIGN.md "Cluster").
		peers     = flag.String("peers", "", "comma-separated base URLs of every cluster node, including this one (enables cluster mode)")
		peersFile = flag.String("peers-file", "", "discovery file with one peer URL per line, re-read on change (enables cluster mode)")
		selfURL   = flag.String("self", "", "this node's base URL exactly as it appears in the peer list (required in cluster mode)")
		vnodes    = flag.Int("vnodes", 0, "virtual nodes per peer on the consistent-hash ring (default 64)")
		probeIv   = flag.Duration("probe-interval", 500*time.Millisecond, "cluster health-probe cadence")

		clusterBench = flag.Int("cluster-selfbench", 0, "spawn a local N-node cluster ladder (1..N single-worker processes), drive the selfbench workload through the ring, write the scaling report and exit")
		clusterReqs  = flag.Int("cluster-requests", 12, "cluster-selfbench: concurrent requests per round")
		clusterTrace = flag.Int("cluster-trace", 0, "spawn a local N-node cluster, drive one forwarded request, fetch and validate its merged trace, write it (-o, default cluster_trace.json) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("mfserved"))
		return
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "mfserved: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	cfg := server.Config{
		Workers:     *workers,
		QueueCap:    *queueCap,
		CacheBytes:  *cacheMB << 20,
		JobTimeout:  *jobTO,
		Retain:      *retain,
		Logger:      logger,
		JournalPath: *jrnlPath,
	}
	cfg.FlightRecords = *flightN
	// The benchmarks grade themselves against objectives even when the
	// operator configured none, so BENCH files always carry attainment.
	benchSpec := *sloSpec
	if benchSpec == "" {
		benchSpec = defaultSLOSpec
	}
	if *sloSpec != "" {
		slo, err := obs.ParseSLO(*sloSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mfserved: %v\n", err)
			os.Exit(2)
		}
		cfg.SLO = slo
	}

	if *selfbench > 0 {
		cfg.Logger = nil     // a selfbench run reports JSON, not request logs
		cfg.JournalPath = "" // benchmark jobs are disposable
		var err error
		if *chaosSeed != 0 {
			err = runChaosBench(cfg, *selfbench, *chaosSeed, *benchOut)
		} else {
			err = runSelfbench(cfg, *selfbench, benchSpec, *benchOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mfserved:", err)
			os.Exit(1)
		}
		return
	}

	if *clusterBench > 0 {
		if err := runClusterBench(*clusterBench, *clusterReqs, benchSpec, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "mfserved:", err)
			os.Exit(1)
		}
		return
	}

	if *clusterTrace > 0 {
		if err := runClusterTraceSmoke(*clusterTrace, *benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "mfserved:", err)
			os.Exit(1)
		}
		return
	}

	var cl *cluster.Cluster
	if *peers != "" || *peersFile != "" {
		if *selfURL == "" {
			fmt.Fprintln(os.Stderr, "mfserved: cluster mode needs -self (this node's URL in the peer list)")
			os.Exit(2)
		}
		var peerList []string
		if *peers != "" {
			peerList = strings.Split(*peers, ",")
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:          *selfURL,
			Peers:         peerList,
			PeersFile:     *peersFile,
			VNodes:        *vnodes,
			ProbeInterval: *probeIv,
			Logger:        logger,
		})
		if err != nil {
			logger.Error("cluster startup failed", "err", err)
			os.Exit(1)
		}
		defer cl.Close()
		cfg.Cluster = cl
	}

	s, err := server.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	httpSrv := server.NewHTTPServer(s.Handler())

	if *debugAddr != "" {
		// pprof lives on its own mux and listener: the profiling surface
		// is opt-in and never reachable through the API address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	// SIGQUIT dumps the flight recorder — the recent-request postmortem —
	// and keeps serving: in-flight jobs are untouched.
	go func() {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		for range quit {
			path := flightDumpPath(*jrnlPath)
			if err := dumpFlightTo(s, path); err != nil {
				logger.Error("flight dump failed", "path", path, "err", err)
				continue
			}
			logger.Info("flight recorder dumped", "path", path)
		}
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down, draining jobs")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
		if err := s.Shutdown(ctx); err != nil {
			logger.Error("job drain", "err", err)
		}
	}()

	// Bind before logging so "addr" is the resolved address: with
	// ":0"-style flags the chosen port is otherwise unknowable to
	// supervisors (and to the crash-recovery tests) watching the log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("mfserved listening",
		"addr", ln.Addr().String(),
		"workers", effectiveWorkers(*workers),
		"queue_capacity", *queueCap,
		"cache_mb", *cacheMB,
		"job_timeout", (*jobTO).String(),
		"retain", *retain,
		"journal", *jrnlPath,
		"version", buildinfo.Version("mfserved"),
	)
	if cl != nil {
		logger.Info("cluster mode", "self", cl.Self(), "members", len(cl.Members()), "max_hops", cl.MaxHops())
	}
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		logger.Error("serve failed", "addr", ln.Addr().String(), "err", err)
		os.Exit(1)
	}
	<-done
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// defaultSLOSpec grades the self-benchmarks when the operator sets no
// -slo: generous targets a loaded loopback service still meets.
const defaultSLOSpec = "p50=50ms,p95=250ms,p99=500ms"

// flightDumpPath places the SIGQUIT dump next to the journal (the
// operator's durable directory) or, without one, in the working dir.
func flightDumpPath(journalPath string) string {
	dir := "."
	if journalPath != "" {
		dir = filepath.Dir(journalPath)
	}
	return filepath.Join(dir, fmt.Sprintf("mfserved-flight-%d.json", os.Getpid()))
}

// dumpFlightTo writes the flight recorder snapshot to path atomically
// enough for a postmortem: full rewrite, rename-free (the file is keyed
// by PID, so successive dumps just supersede each other).
func dumpFlightTo(s *server.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.DumpFlight(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- selfbench ----------------------------------------------------------

// roundReport summarizes one round of concurrent requests.
type roundReport struct {
	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	CacheHits     int     `json:"cache_hits"`
	// SLO is the round's attainment per objective, keyed "p99<=500ms".
	SLO map[string]float64 `json:"slo_attainment,omitempty"`
}

// sloAttainment grades one round's latencies against the spec's
// objectives: the fraction of requests within each target, keyed like
// "p99<=500ms". A request list that met the objective reads >= quantile.
func sloAttainment(spec string, lats []time.Duration) map[string]float64 {
	slo, err := obs.ParseSLO(spec)
	if err != nil || slo == nil || len(lats) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, st := range slo.Stats() {
		target := time.Duration(st.TargetMs * float64(time.Millisecond))
		good := 0
		for _, d := range lats {
			if d <= target {
				good++
			}
		}
		out[fmt.Sprintf("%s<=%s", st.Name, target)] = float64(good) / float64(len(lats))
	}
	return out
}

// scalingPoint is one GOMAXPROCS rung of the selfbench scaling curve.
type scalingPoint struct {
	Procs int         `json:"procs"`
	Cold  roundReport `json:"cold"`
	Warm  roundReport `json:"warm"`
}

// benchReport is the selfbench JSON document (BENCH_service.json).
type benchReport struct {
	Bench    string      `json:"bench"`
	Requests int         `json:"requests"`
	Workers  int         `json:"workers"`
	QueueCap int         `json:"queue_capacity"`
	HostCPUs int         `json:"host_cpus"`
	Cold     roundReport `json:"cold"`
	Warm     roundReport `json:"warm"`
	SpeedupX float64     `json:"warm_speedup_x"`
	// Scaling reports cold/warm throughput at GOMAXPROCS 1, 2 and
	// NumCPU (deduplicated): the service's multicore curve. Every cold
	// round uses fresh seeds so it never touches earlier rounds' cache
	// entries.
	Scaling []scalingPoint `json:"scaling"`
	// SLOSpec is the objective spec the per-round slo_attainment blocks
	// were graded against.
	SLOSpec   string `json:"slo_spec,omitempty"`
	GoVersion string `json:"go_version"`
}

// scalingProcs is the deduplicated GOMAXPROCS ladder {1, 2, NumCPU}.
func scalingProcs() []int {
	n := runtime.NumCPU()
	procs := []int{1}
	if n >= 2 {
		procs = append(procs, 2)
	}
	if n > 2 {
		procs = append(procs, n)
	}
	return procs
}

// runSelfbench starts the service on a loopback listener and drives it
// over real HTTP: one cache-cold round of n concurrent Synthetic1
// requests with distinct seeds, then the identical round again so every
// request is answered from the content-addressed cache.
func runSelfbench(cfg server.Config, n int, sloSpec, outPath string) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if cfg.QueueCap < n {
		// The benchmark fires all n at once; a smaller queue would turn
		// the measurement into a 429 retry exercise.
		return fmt.Errorf("selfbench needs -queue >= %d (have %d)", n, cfg.QueueCap)
	}

	// Each round's requests use seeds seedBase+1 … seedBase+n: a fresh
	// base makes a round cache-cold, a repeated base makes it cache-warm.
	body := func(seedBase uint64, i int) string {
		return fmt.Sprintf(`{"bench":"Synthetic1","options":{"seed":%d}}`, seedBase+uint64(i)+1)
	}
	run := func(label string, seedBase uint64) (roundReport, error) {
		lats := make([]time.Duration, n)
		hits := make([]bool, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lats[i], hits[i], errs[i] = oneRequest(ts.URL, body(seedBase, i))
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		for i, err := range errs {
			if err != nil {
				return roundReport{}, fmt.Errorf("%s request %d: %w", label, i, err)
			}
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		nhits := 0
		for _, h := range hits {
			if h {
				nhits++
			}
		}
		return roundReport{
			WallMs:        ms(wall),
			ThroughputRPS: float64(n) / wall.Seconds(),
			P50Ms:         ms(percentile(lats, 0.50)),
			P95Ms:         ms(percentile(lats, 0.95)),
			P99Ms:         ms(percentile(lats, 0.99)),
			MaxMs:         ms(lats[n-1]),
			CacheHits:     nhits,
			SLO:           sloAttainment(sloSpec, lats),
		}, nil
	}

	fmt.Fprintf(os.Stderr, "selfbench: %d concurrent Synthetic1 requests, %d workers — cold round…\n",
		n, effectiveWorkers(cfg.Workers))
	cold, err := run("cold", 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "selfbench: warm round (identical requests, cache-served)…")
	warm, err := run("warm", 0)
	if err != nil {
		return err
	}
	if warm.CacheHits != n {
		return fmt.Errorf("warm round had %d/%d cache hits: cache is not content-addressing correctly", warm.CacheHits, n)
	}

	// Scaling curve: the same cold/warm pair at each GOMAXPROCS rung.
	// Each rung gets an unused seed base so its cold round never collides
	// with a previous rung's cache entries.
	prevProcs := runtime.GOMAXPROCS(0)
	var scaling []scalingPoint
	for r, procs := range scalingProcs() {
		runtime.GOMAXPROCS(procs)
		base := uint64((r + 1) * 1_000_000)
		fmt.Fprintf(os.Stderr, "selfbench: scaling rung GOMAXPROCS=%d…\n", procs)
		c, err := run(fmt.Sprintf("scaling-cold@%d", procs), base)
		if err != nil {
			runtime.GOMAXPROCS(prevProcs)
			return err
		}
		w, err := run(fmt.Sprintf("scaling-warm@%d", procs), base)
		if err != nil {
			runtime.GOMAXPROCS(prevProcs)
			return err
		}
		if c.CacheHits != 0 || w.CacheHits != n {
			runtime.GOMAXPROCS(prevProcs)
			return fmt.Errorf("scaling rung GOMAXPROCS=%d: cold had %d hits (want 0), warm %d (want %d)",
				procs, c.CacheHits, w.CacheHits, n)
		}
		scaling = append(scaling, scalingPoint{Procs: procs, Cold: c, Warm: w})
	}
	runtime.GOMAXPROCS(prevProcs)

	rep := benchReport{
		Bench:     "Synthetic1",
		Requests:  n,
		Workers:   effectiveWorkers(cfg.Workers),
		QueueCap:  cfg.QueueCap,
		HostCPUs:  runtime.NumCPU(),
		Cold:      cold,
		Warm:      warm,
		SpeedupX:  cold.WallMs / warm.WallMs,
		Scaling:   scaling,
		SLOSpec:   sloSpec,
		GoVersion: runtime.Version(),
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath != "" {
		return os.WriteFile(outPath, out, 0o644)
	}
	_, err = os.Stdout.Write(out)
	return err
}

// ---- chaos selfbench ----------------------------------------------------

// chaosReport is the -selfbench -chaos JSON document: outcome counts
// under the default fault-injection plan plus per-point fire counts.
type chaosReport struct {
	Bench    string `json:"bench"`
	Requests int    `json:"requests"`
	Seed     uint64 `json:"chaos_seed"`
	Workers  int    `json:"workers"`
	QueueCap int    `json:"queue_capacity"`
	// OK finished clean; Degraded finished via the degradation ladder
	// (the response lists which rungs); Failed hit an injected or real
	// error; Rejected got 429 backpressure; Shed got 503 from the open
	// circuit breaker.
	OK       int `json:"ok"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
	Rejected int `json:"rejected"`
	Shed     int `json:"shed"`
	// Chip-session lifecycles interleaved with the one-shot requests:
	// Sessions counts sessions that opened, and each open session takes
	// one fault report whose outcome lands in exactly one of the
	// repaired/degraded/abandoned/failed buckets below.
	Sessions         int `json:"sessions"`
	SessionRepaired  int `json:"session_repaired"`
	SessionDegraded  int `json:"session_degraded"`
	SessionAbandoned int `json:"session_abandoned"`
	SessionFailed    int `json:"session_failed"`
	// Fires counts injected faults by point name.
	Fires     map[string]int64 `json:"fault_fires"`
	WallMs    float64          `json:"wall_ms"`
	GoVersion string           `json:"go_version"`
}

// runChaosBench drives the same concurrent request shape as runSelfbench
// with the default chaos fault plan armed and the degradation ladder on.
// The pass criterion is weaker than the clean benchmark's: every request
// must reach a terminal outcome (no hangs, no invalid solutions — jobs
// under fault injection are audited in-pipeline), but injected failures
// and backpressure are expected and merely counted.
func runChaosBench(cfg server.Config, n int, seed uint64, outPath string) error {
	plan := fault.DefaultChaos(seed)
	cfg.Fault = plan
	cfg.Degrade = core.Degrade{RipUpRounds: 3, ReducedEffort: true}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	rep := chaosReport{
		Bench: "Synthetic1", Requests: n, Seed: seed,
		Workers: effectiveWorkers(cfg.Workers), QueueCap: cfg.QueueCap,
		GoVersion: runtime.Version(),
	}
	fmt.Fprintf(os.Stderr, "selfbench: %d concurrent Synthetic1 requests under chaos seed %d…\n", n, seed)
	outcomes := make([]string, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"bench":"Synthetic1","options":{"seed":%d}}`, i+1)
			// Every fourth slot drives a chip-session lifecycle instead of
			// a one-shot synthesis, so the session repair path — and its
			// session.repair.fail injection point — sees chaos too.
			if i%4 == 3 {
				outcomes[i] = chaosSessionRequest(ts.URL, body)
			} else {
				outcomes[i] = chaosRequest(ts.URL, body)
			}
		}(i)
	}
	wg.Wait()
	rep.WallMs = ms(time.Since(start))
	for i, o := range outcomes {
		switch o {
		case "ok":
			rep.OK++
		case "degraded":
			rep.Degraded++
		case "failed":
			rep.Failed++
		case "rejected":
			rep.Rejected++
		case "shed":
			rep.Shed++
		case "session-repaired":
			rep.Sessions++
			rep.SessionRepaired++
		case "session-degraded":
			rep.Sessions++
			rep.SessionDegraded++
		case "session-abandoned":
			rep.Sessions++
			rep.SessionAbandoned++
		case "session-failed":
			rep.Sessions++
			rep.SessionFailed++
		default:
			return fmt.Errorf("chaos request %d never reached a terminal outcome: %s", i, o)
		}
	}
	rep.Fires = make(map[string]int64)
	for pt, st := range plan.Stats() {
		if st.Fires > 0 {
			rep.Fires[string(pt)] = st.Fires
		}
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if outPath != "" {
		return os.WriteFile(outPath, out, 0o644)
	}
	_, err = os.Stdout.Write(out)
	return err
}

// chaosRequest submits one request and classifies its terminal outcome.
func chaosRequest(base, body string) string {
	resp, err := http.Post(base+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		return "transport error: " + err.Error()
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return "rejected"
	case http.StatusServiceUnavailable:
		return "shed"
	case http.StatusInternalServerError:
		return "failed" // injected handler error
	case http.StatusOK, http.StatusAccepted:
	default:
		return fmt.Sprintf("unexpected status %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return "bad submit body: " + err.Error()
	}
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		jr, err := http.Get(base + "/v1/jobs/" + sub.JobID)
		if err != nil {
			return "transport error: " + err.Error()
		}
		jdata, _ := io.ReadAll(jr.Body)
		jr.Body.Close()
		var job struct {
			Status       string            `json:"status"`
			Degradations []json.RawMessage `json:"degradations"`
		}
		if err := json.Unmarshal(jdata, &job); err != nil {
			return "bad job body: " + err.Error()
		}
		switch job.Status {
		case "done":
			if len(job.Degradations) > 0 {
				return "degraded"
			}
			return "ok"
		case "failed", "canceled":
			return "failed"
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "poll timeout"
}

// chaosSessionRequest drives one chip-session lifecycle — open, one
// fault report, close — and classifies its terminal outcome. Create
// failures classify like one-shot requests (rejected/shed/failed); once
// a session opens, the repair outcome lands in a session-* bucket.
func chaosSessionRequest(base, body string) string {
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		return "transport error: " + err.Error()
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return "rejected"
	case http.StatusServiceUnavailable:
		return "shed"
	case http.StatusInternalServerError:
		return "failed" // injected synthesis fault during create
	case http.StatusCreated:
	default:
		return fmt.Sprintf("unexpected create status %d: %s", resp.StatusCode, data)
	}
	var sr struct {
		Session string `json:"session"`
		Faults  string `json:"faults"`
	}
	if err := json.Unmarshal(data, &sr); err != nil {
		return "bad create body: " + err.Error()
	}
	fr := `{"at":0,"cells":[{"x":0,"y":0}]}`
	resp, err = http.Post(base+sr.Faults, "application/json", strings.NewReader(fr))
	if err != nil {
		return "transport error: " + err.Error()
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	outcome := ""
	switch resp.StatusCode {
	case http.StatusOK:
		var rr struct {
			Record struct {
				Outcome string `json:"outcome"`
			} `json:"record"`
		}
		if err := json.Unmarshal(data, &rr); err != nil {
			return "bad repair body: " + err.Error()
		}
		outcome = "session-" + rr.Record.Outcome
	case http.StatusInternalServerError, http.StatusServiceUnavailable:
		// session.repair.fail (or a timeout) aborted the repair before
		// the ladder ran; the session itself stays live until closed.
		outcome = "session-failed"
	default:
		return fmt.Sprintf("unexpected repair status %d: %s", resp.StatusCode, data)
	}
	if outcome != "session-abandoned" {
		cr, err := http.Post(base+sr.Session+"/close", "application/json", nil)
		if err != nil {
			return "transport error: " + err.Error()
		}
		io.Copy(io.Discard, cr.Body)
		cr.Body.Close()
	}
	return outcome
}

// oneRequest submits one synthesis request and waits for its job to
// finish, returning the submit→done latency and whether the response was
// served from the cache.
func oneRequest(base, body string) (time.Duration, bool, error) {
	start := time.Now()
	resp, err := http.Post(base+"/v1/synthesize", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return 0, false, fmt.Errorf("POST /v1/synthesize: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return 0, false, err
	}
	for sub.Status != "done" {
		time.Sleep(2 * time.Millisecond)
		jr, err := http.Get(base + "/v1/jobs/" + sub.JobID)
		if err != nil {
			return 0, false, err
		}
		jdata, _ := io.ReadAll(jr.Body)
		jr.Body.Close()
		var job struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(jdata, &job); err != nil {
			return 0, false, err
		}
		switch job.Status {
		case "done":
			sub.Status = "done"
		case "failed", "canceled":
			return 0, false, fmt.Errorf("job %s %s: %s", sub.JobID, job.Status, job.Error)
		}
	}
	return time.Since(start), sub.Cached, nil
}

// percentile returns the p-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
