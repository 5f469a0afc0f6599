// Command mfload is the workload engine's CLI: it replays a named,
// seeded traffic profile against a running mfserved and writes the
// aggregated SLO-style report as BENCH_load.json.
//
// Usage:
//
//	mfload -list
//	mfload -addr http://127.0.0.1:8080 -profile steady -duration 5s
//	mfload -spawn -profile heavytail -duration 5s -o BENCH_load.json
//	mfload -profile steady -duration 5s -batch 8           # ship via /v1/synthesize/batch
//	mfload -profile bursty -duration 5s -print-schedule    # inspect, don't run
//
// The request schedule — arrival offsets, request bodies, source tags —
// is a pure function of (profile, seed, duration, rate): two runs with
// the same flags submit byte-identical request sequences, which is what
// makes BENCH_load.json comparisons regressions rather than noise. The
// measured numbers (latency percentiles, error/shed/degraded/cache-hit
// rates) describe the server under test.
//
// -spawn boots an in-process mfserved on a loopback port for the run
// (what `make load-bench` uses); -addr points at any running instance
// (what the CI load job does, against a real separate process). The
// report embeds a Synthetic1 reference entry measured over the same
// API, so `mfbench -regress BENCH_load.json -bench Synthetic1` gates a
// load run exactly like the other BENCH documents.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/regress"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "", "base URL of a running mfserved (e.g. http://127.0.0.1:8080)")
		spawn    = flag.Bool("spawn", false, "boot an in-process mfserved on a loopback port for the run")
		profile  = flag.String("profile", "steady", "workload profile (see -list)")
		duration = flag.Duration("duration", 5*time.Second, "schedule horizon")
		rate     = flag.Float64("rate", 0, "arrival rate override, requests/s (0 = profile default)")
		conc     = flag.Int("concurrency", 0, "worker/in-flight cap override (0 = profile default)")
		seed     = flag.Uint64("seed", 1, "schedule seed; same seed, same byte-identical schedule")
		imax     = flag.Int("imax", 60, "annealing effort embedded in every request body")
		batch    = flag.Int("batch", 0, "group this many consecutive requests per POST /v1/synthesize/batch (0 = singles)")
		out      = flag.String("o", "BENCH_load.json", "report output path ('-' for stdout)")
		reqlog   = flag.String("reqlog", "", "append one JSON line per request outcome to this file")
		list     = flag.Bool("list", false, "list profiles and exit")
		printSch = flag.Bool("print-schedule", false, "print the canonical schedule bytes and exit without running")
		noRegr   = flag.Bool("no-regress", false, "skip the Synthetic1 reference measurement")
		spawnW   = flag.Int("spawn-workers", 0, "-spawn: worker-pool size (0 = NumCPU)")
		spawnQ   = flag.Int("spawn-queue", 256, "-spawn: queue capacity")
	)
	flag.Parse()

	if *list {
		for _, p := range loadgen.Profiles() {
			loop := "closed-loop"
			if p.OpenLoop {
				loop = "open-loop"
			}
			fmt.Printf("%-10s %-12s %s\n", p.Name, loop, p.Description)
		}
		return
	}

	p, err := loadgen.ByName(*profile)
	if err != nil {
		fail(2, "%v", err)
	}
	sched, err := loadgen.Build(p, loadgen.Options{
		Seed:        *seed,
		Duration:    *duration,
		Rate:        *rate,
		Concurrency: *conc,
		Imax:        *imax,
		Batch:       *batch,
	})
	if err != nil {
		fail(2, "building schedule: %v", err)
	}
	if *printSch {
		b, err := sched.Bytes()
		if err != nil {
			fail(1, "%v", err)
		}
		os.Stdout.Write(b)
		return
	}

	base := *addr
	if *spawn {
		if base != "" {
			fail(2, "-spawn and -addr are mutually exclusive")
		}
		srv, err := server.New(server.Config{Workers: *spawnW, QueueCap: *spawnQ})
		if err != nil {
			fail(1, "spawning server: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(1, "listening: %v", err)
		}
		hs := server.NewHTTPServer(srv.Handler())
		go hs.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			srv.Shutdown(ctx)
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "mfload: spawned mfserved at %s\n", base)
	}
	if base == "" {
		fail(2, "need -addr (running mfserved) or -spawn")
	}

	// Probe the server before offering load, so a typo'd -addr fails
	// fast instead of producing a report that is 100%% transport errors.
	if resp, err := http.Get(base + "/healthz"); err != nil {
		fail(1, "server not reachable: %v", err)
	} else {
		resp.Body.Close()
	}

	// The Synthetic1 reference is measured before the run: against a
	// freshly booted server the job is a true cold synthesis, so the
	// entry records a real CPU time. Against a warm server it may be a
	// cache hit (ns_per_op 0) — the cost gate is exact either way, and
	// a zero reference time merely disables the (noisy) time ratio.
	var regr *regress.Baseline
	if !*noRegr {
		var err error
		if regr, err = loadgen.MeasureRegressEntry(nil, base); err != nil {
			fail(1, "measuring Synthetic1 reference: %v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &loadgen.Runner{BaseURL: base}
	if *reqlog != "" {
		f, err := os.Create(*reqlog)
		if err != nil {
			fail(1, "%v", err)
		}
		defer f.Close()
		runner.ReqLog = f
	}

	fmt.Fprintf(os.Stderr, "mfload: %s — %d requests over %v against %s\n",
		sched.Profile, len(sched.Items), *duration, base)
	start := time.Now()
	outcomes, err := runner.Run(ctx, sched)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mfload: run interrupted: %v\n", err)
	}
	rep := loadgen.Summarize(sched, outcomes, wall)

	doc := loadgen.NewDoc(time.Now().UTC().Format(time.RFC3339))
	doc.Profiles = append(doc.Profiles, rep)
	doc.Regress = regr

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(1, "%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := doc.Write(w); err != nil {
		fail(1, "writing report: %v", err)
	}
	fmt.Fprintf(os.Stderr,
		"mfload: %s — %d/%d done (%.0f/s), p50 %.1fms p95 %.1fms p99 %.1fms, cache %.0f%%, shed %.0f%%, err %.0f%%\n",
		rep.Profile, rep.Completed, rep.Scheduled, rep.ThroughputPerS,
		rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99,
		rep.CacheHitRate*100, rep.ShedRate*100, rep.ErrorRate*100)
	if rep.Sessions > 0 {
		fmt.Fprintf(os.Stderr,
			"mfload: %s — %d sessions, %d repairs (%d repaired, %d degraded), %d abandoned\n",
			rep.Profile, rep.Sessions, rep.Repairs, rep.Repaired, rep.DegradedRepairs, rep.Abandoned)
	}

	// An all-errors run means the server was absent or broken; exit
	// non-zero so CI cannot archive a vacuous report as success.
	if rep.Completed == 0 {
		fail(1, "no request completed (errors %d, shed %d, rejected %d)", rep.Errors, rep.Shed, rep.Rejected)
	}
	// Profiles that declare a shed envelope (overload) must land inside
	// it: a zero shed rate means the server was never saturated and the
	// run proved nothing about the breaker/shed path; a rate at the
	// ceiling means nothing got through.
	if p.ShedCeil > 0 && (rep.ShedRate < p.ShedFloor || rep.ShedRate > p.ShedCeil) {
		fail(1, "%s: shed rate %.3f outside the declared envelope [%.2f, %.2f]",
			rep.Profile, rep.ShedRate, p.ShedFloor, p.ShedCeil)
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mfload: "+format+"\n", args...)
	os.Exit(code)
}
