package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/solio"
)

// table1Op is one synthesis of the table1 workload.
type table1Op struct {
	bench benchdata.Benchmark
	opts  core.Options
}

// table1Ops returns a generator of the workload's ops: it cycles
// through the seven Table I benchmarks at the paper's parameters
// (core.DefaultOptions, Imax 150), each op with its own placement seed
// from the workload seed, so no two ops of a cycle share an input and a
// memoizing change cannot pass for a faster synthesis.
func table1Ops(seed uint64) func() table1Op {
	all := benchdata.All()
	src := rng.New(seed ^ 0x7461626c6531) // domain-separate from other workloads
	i := 0
	return func() table1Op {
		opts := core.DefaultOptions()
		opts.Place.Seed = src.Uint64()
		op := table1Op{bench: all[i%len(all)], opts: opts}
		i++
		return op
	}
}

// canonicalDoc is the solution document with the wall-clock measurement
// zeroed — the bytes mfserved caches and serves.
func canonicalDoc(sol *core.Solution) ([]byte, error) {
	c := *sol
	c.CPU = 0
	var buf bytes.Buffer
	if err := solio.Encode(&buf, &c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// table1Quality synthesizes the Table I suite at the paper's exact
// parameters, audits every solution and sums the quality columns. It is
// the workload's set-up and warm-up.
func table1Quality() (quality, error) {
	var q quality
	for _, bm := range benchdata.All() {
		sol, err := core.Synthesize(bm.Graph, bm.Alloc, core.DefaultOptions())
		if err != nil {
			return q, fmt.Errorf("%s: %w", bm.Name, err)
		}
		if err := core.Audit(sol).Err(); err != nil {
			return q, fmt.Errorf("%s: audit: %w", bm.Name, err)
		}
		m := sol.Metrics()
		q.MakespanS += m.ExecutionTime.Sec()
		q.ChannelLengthMM += m.ChannelLength.MM()
		q.ChannelWashS += m.ChannelWashTime.Sec()
	}
	return q, nil
}

// checkQuality compares measured quality sums with the recorded ones.
// The sums are deterministic, so they must match to rounding.
func checkQuality(rep *report, what string, got, want quality) {
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
	if !close(got.MakespanS, want.MakespanS) || !close(got.ChannelLengthMM, want.ChannelLengthMM) ||
		!close(got.ChannelWashS, want.ChannelWashS) {
		rep.wrong("%s quality %+v, recorded %+v", what, got, want)
	}
	rep.set("makespan_s", got.MakespanS)
	rep.set("channel_length_mm", got.ChannelLengthMM)
	rep.set("channel_wash_s", got.ChannelWashS)
}

func runTable1(cfg config, rep *report) error {
	q, setupS, err := medianSetup(setupReps, table1Quality, func(quality) {})
	if err != nil {
		return err
	}
	checkQuality(rep, "Table I (Imax 150)", q, cfg.Expect.Table1)
	next := table1Ops(cfg.Seed)
	if cfg.Trace {
		return table1Traced(cfg, rep, next)
	}

	var lat []float64
	var busy time.Duration
	for i := 0; busy < cfg.Window; i++ {
		op := next()
		rep.attempted++
		t0 := time.Now()
		sol, err := core.Synthesize(op.bench.Graph, op.bench.Alloc, op.opts)
		d := time.Since(t0)
		busy += d
		if err != nil {
			rep.failed++
			rep.wrong("op %d %s: %v", i, op.bench.Name, err)
			continue
		}
		// The audit is the correctness check, outside the op's time.
		if err := core.Audit(sol).Err(); err != nil {
			rep.failed++
			rep.wrong("op %d %s: audit: %v", i, op.bench.Name, err)
			continue
		}
		lat = append(lat, ms(d))
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	setLatency(rep, lat, cfg.SLOms)
	rep.set("setup_s", setupS)
	rep.set("throughput_rps", float64(len(lat))/busy.Seconds())
	rep.set("peak_rss_mb", rss)
	rep.set("repaired_ratio", 1) // no fault reports: none unrepaired
	return nil
}

// setLatency reports the latency percentiles, the SLO share and the
// correct share, and states the sample count behind them. The p99 is
// printed on every run but carried in the JSON result only by traced
// runs: on a shared 2-vCPU host it moves too much between runs to gate.
func setLatency(rep *report, lat []float64, limitMs float64) {
	p99 := percentile(lat, 99)
	note("latency samples %d, p99 %.4g ms with %d samples beyond it", len(lat), p99, beyond(lat, p99))
	rep.set("latency_p50_ms", percentile(lat, 50))
	rep.set("latency_p99_ms", p99)
	rep.set("slo_ok_ratio", withinShare(lat, rep.attempted-len(lat), limitMs))
	if rep.attempted > 0 {
		rep.set("correct_ratio", float64(rep.attempted-rep.failed)/float64(rep.attempted))
	}
}

// staged is one replay of the synthesis clean path, call by call
// through the modules' public functions, with each call timed.
type staged struct {
	doc                      []byte
	synth                    time.Duration // Instantiate through the assembled solution
	schedule, place, route   time.Duration
	audit, encode, decode    time.Duration
	placeAllocs, routeAllocs uint64
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replay runs core.Synthesize's clean path (no portfolio, tempering,
// deadlines or faults) stage by stage: Instantiate, ScheduleContext,
// BuildNets, AnnealContext, SolveContext with the same seed-retry
// ladder, Audit, Encode, Decode. Its document must be byte-identical to
// core.Synthesize's, or it measured a different program.
func replay(ctx context.Context, op table1Op) (*staged, error) {
	g, alloc, opts := op.bench.Graph, op.bench.Alloc, op.opts
	st := &staged{}
	begin := time.Now()
	comps := alloc.Instantiate()

	t0 := time.Now()
	sched, err := schedule.ScheduleContext(ctx, g, comps, opts.Schedule)
	st.schedule = time.Since(t0)
	if err != nil {
		return nil, err
	}
	nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)

	var routing *route.Result
	var used *place.Placement
	popts := opts.Place
	attempt := 0
	for ; ; attempt++ {
		a0 := mallocs()
		t0 = time.Now()
		pl, err := place.AnnealContext(ctx, comps, nets, popts)
		st.place += time.Since(t0)
		st.placeAllocs += mallocs() - a0
		if err != nil {
			return nil, err
		}
		a0 = mallocs()
		t0 = time.Now()
		routing, used, err = route.SolveContext(ctx, sched, comps, pl, opts.Route, false)
		st.route += time.Since(t0)
		st.routeAllocs += mallocs() - a0
		if err == nil {
			break
		}
		if attempt >= 4 {
			return nil, err
		}
		popts.Seed++
	}
	// The recovery provenance core.Synthesize records, in its order.
	var degr []core.Degradation
	if attempt > 0 {
		degr = append(degr, core.Degradation{Stage: "route", Event: "seed-retry",
			Detail: fmt.Sprintf("%d placement seed retries before routable (final seed %d)", attempt, popts.Seed)})
	}
	if routing.DilationTries > 0 {
		degr = append(degr, core.Degradation{Stage: "route", Event: "dilate",
			Detail: fmt.Sprintf("placement dilated %d times before routable", routing.DilationTries)})
	}
	if routing.RecoveryRounds > 0 {
		degr = append(degr, core.Degradation{Stage: "route", Event: "ripup",
			Detail: fmt.Sprintf("%d rip-up recovery rounds rescued stuck tasks", routing.RecoveryRounds)})
	}
	if routing.DefectCells > 0 {
		degr = append(degr, core.Degradation{Stage: "route", Event: "defects",
			Detail: fmt.Sprintf("%d routing cells marked defective by fault injection", routing.DefectCells)})
	}
	sol := &core.Solution{Assay: g, Comps: comps, Opts: opts, Schedule: sched, Placement: used,
		Nets: nets, Routing: routing, Degradations: degr}
	st.synth = time.Since(begin)

	t0 = time.Now()
	aerr := core.Audit(sol).Err()
	st.audit = time.Since(t0)
	if aerr != nil {
		return nil, fmt.Errorf("audit: %w", aerr)
	}
	var buf bytes.Buffer
	t0 = time.Now()
	err = solio.Encode(&buf, sol)
	st.encode = time.Since(t0)
	if err != nil {
		return nil, err
	}
	st.doc = buf.Bytes()
	t0 = time.Now()
	_, err = solio.Decode(bytes.NewReader(st.doc))
	st.decode = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return st, nil
}

// table1Traced runs each op twice: core.Synthesize untraced (the
// reference document and the per-benchmark time) and the staged replay
// with the obs sink attached. The two documents must match byte for
// byte. Tracing overhead is the replay's pipeline time over the
// untraced synthesis time of the same ops.
func table1Traced(cfg config, rep *report, next func() table1Op) error {
	sink := newLayerSink()
	ctx := obs.Into(context.Background(), obs.New(sink))
	perBench := map[string][]float64{}
	quenchOf, placeOf := map[string]time.Duration{}, map[string]time.Duration{}
	var synthTotal, replayTotal time.Duration
	var tot staged
	done := 0
	start := time.Now()
	for i := 0; time.Since(start) < cfg.Window; i++ {
		op := next()
		rep.attempted++
		// Alternate which of the pair runs first, so warm caches favour
		// neither side of the overhead comparison.
		var st *staged
		var rerr error
		var quenched time.Duration
		doReplay := func() {
			q0 := sink.quench
			st, rerr = replay(ctx, op)
			quenched = sink.quench - q0
		}
		if i%2 == 1 {
			doReplay()
		}
		t0 := time.Now()
		sol, err := core.Synthesize(op.bench.Graph, op.bench.Alloc, op.opts)
		d := time.Since(t0)
		if err != nil {
			rep.failed++
			rep.wrong("op %d %s: %v", i, op.bench.Name, err)
			continue
		}
		want, err := canonicalDoc(sol)
		if err != nil {
			return err
		}
		if i%2 == 0 {
			doReplay()
		}
		if rerr != nil {
			rep.failed++
			rep.wrong("op %d %s: replay: %v", i, op.bench.Name, rerr)
			continue
		}
		if !bytes.Equal(st.doc, want) {
			rep.failed++
			rep.wrong("op %d %s: staged replay document differs from core.Synthesize", i, op.bench.Name)
			continue
		}
		done++
		perBench[op.bench.Name] = append(perBench[op.bench.Name], ms(d))
		quenchOf[op.bench.Name] += quenched
		placeOf[op.bench.Name] += st.place
		synthTotal += d
		replayTotal += st.synth
		tot.schedule += st.schedule
		tot.place += st.place
		tot.route += st.route
		tot.audit += st.audit
		tot.encode += st.encode
		tot.decode += st.decode
		tot.placeAllocs += st.placeAllocs
		tot.routeAllocs += st.routeAllocs
	}
	if done == 0 {
		return fmt.Errorf("no op completed")
	}
	n := float64(done)
	per := func(d time.Duration) float64 { return ms(d) / n }
	rep.set("schedule.ms", per(tot.schedule))
	rep.set("schedule.case1_binds", float64(sink.case1)/n)
	rep.set("schedule.case2_binds", float64(sink.case2)/n)
	rep.set("place.ms", per(tot.place))
	rep.set("place.anneal_ms", per(sink.anneal))
	rep.set("place.quench_ms", per(sink.quench))
	rep.set("place.sa_moves", float64(sink.saMoves)/n)
	rep.set("place.sa_accept_ratio", float64(sink.saAccepted)/float64(max(1, sink.saMoves)))
	rep.set("place.allocs", float64(tot.placeAllocs)/n)
	rep.set("route.ms", per(tot.route))
	rep.set("route.tasks", float64(sink.routeTasks)/n)
	rep.set("route.astar_expanded", float64(sink.expanded)/n)
	rep.set("route.slot_conflicts", float64(sink.conflicts)/n)
	rep.set("route.dilations", float64(sink.dilations)/n)
	rep.set("route.allocs", float64(tot.routeAllocs)/n)
	rep.set("verify.audit_ms", per(tot.audit))
	rep.set("solio.encode_ms", per(tot.encode))
	rep.set("solio.decode_ms", per(tot.decode))
	names := make([]string, 0, len(perBench))
	for name := range perBench {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.set("core.synthesize_ms."+name, percentile(perBench[name], 50))
		note("%s: %d ops, quench %.1f%% of place", name, len(perBench[name]),
			100*quenchOf[name].Seconds()/placeOf[name].Seconds())
	}
	rep.set("trace.overhead_pct", 100*(replayTotal.Seconds()/synthTotal.Seconds()-1))
	var lat []float64
	for _, name := range names {
		lat = append(lat, perBench[name]...)
	}
	setLatency(rep, lat, cfg.SLOms)
	note("traced ops %d; quench share of place %.1f%%", done, 100*ms(sink.quench)/ms(tot.place))
	return nil
}
