package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/solio"
)

// The serving workloads' shape. conns is the load generator's whole
// connection and sender budget (the host's two CPUs); the rates are
// fixed so a faster server shows as lower latency, not as more load.
const (
	conns     = 2
	serveImax = 60
	hotRate   = 200 // ops/s, well inside cache-hit capacity
	coldRate  = 50  // ops/s, about a sixth of the cold-miss capacity of a 2-CPU host
)

// benchBody is the request body loadgen renders for a Table I benchmark.
func benchBody(name string, imax int, seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"bench":%q,"options":{"imax":%d,"seed":%d}}`, name, imax, seed))
}

// servedBodies are the Table I requests at the serving effort and seed.
func servedBodies(seed uint64) [][]byte {
	var out [][]byte
	for _, bm := range benchdata.All() {
		out = append(out, benchBody(bm.Name, serveImax, seed))
	}
	return out
}

// buildSchedule builds the traffic with loadgen.Build, applies edit
// (when not nil), and prints the sha256 of the canonical bytes of the
// traffic it will send next to the seed: two runs with one seed must
// print the same digest.
func buildSchedule(p loadgen.Profile, opts loadgen.Options, edit func(*loadgen.Schedule) error) (*loadgen.Schedule, error) {
	s, err := loadgen.Build(p, opts)
	if err == nil && edit != nil {
		err = edit(s)
	}
	if err != nil {
		return nil, err
	}
	b, err := s.Bytes()
	if err != nil {
		return nil, err
	}
	note("schedule %s seed %d items %d sha256 %x", p.Name, opts.Seed, len(s.Items), sha256.Sum256(b))
	return s, nil
}

// prefill submits bodies, waits for every job, and returns each body's
// solution document and the quality sums of the solutions.
func prefill(c *child, bodies [][]byte) (map[string][]byte, quality, error) {
	var q quality
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		code, data, err := c.post("/v1/synthesize", b)
		if err != nil {
			return nil, q, err
		}
		var sr submitReply
		if err := json.Unmarshal(data, &sr); err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
			return nil, q, fmt.Errorf("prefill %s: HTTP %d: %s", b, code, data)
		}
		ids[i] = sr.JobID
	}
	docs := map[string][]byte{}
	for i, id := range ids {
		j, err := c.await(id)
		if err != nil {
			return nil, q, err
		}
		if j.Status != "done" || j.Metrics == nil {
			return nil, q, fmt.Errorf("prefill %s: job %s %s %s", bodies[i], id, j.Status, j.Error)
		}
		code, doc, err := c.get("/v1/jobs/" + id + "/solution")
		if err != nil || code != http.StatusOK {
			return nil, q, fmt.Errorf("prefill %s: solution: HTTP %d %v", bodies[i], code, err)
		}
		docs[string(bodies[i])] = doc
		q.MakespanS += float64(j.Metrics.ExecutionTimeMs) / 1000
		q.ChannelLengthMM += float64(j.Metrics.ChannelLengthUm) / 1000
		q.ChannelWashS += float64(j.Metrics.ChannelWashMs) / 1000
	}
	return docs, q, nil
}

// sent is the sender's record of one open-loop op.
type sent struct {
	due   time.Time
	late  time.Duration // how long after its due time the op was sent
	done  time.Time     // reply received
	jobID string
	err   error
}

// openLoop sends items at start+item.At from conns sender goroutines.
// An op due while every sender is busy goes out late, and its latency
// still counts from its due time. It returns once every op has a reply.
//
// loadgen.Runner is not used here: it starts an op's clock after its
// concurrency semaphore, so waiting for a sender is not charged, and it
// sees job completion only at its poll ticks.
func openLoop(start time.Time, items []loadgen.Item, send func(it loadgen.Item) (string, error)) []sent {
	out := make([]sent, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				due := start.Add(items[i].At)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				at := time.Now()
				id, err := send(items[i])
				out[i] = sent{due: due, late: at.Sub(due), done: time.Now(), jobID: id, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// submit posts one synthesis request and returns its job ID. wantCached
// says whether the workload expects a cache hit (200) or a queued miss
// (202); anything else fails the op.
func submit(c *child, body []byte, wantCached bool) (string, error) {
	code, data, err := c.post("/v1/synthesize", body)
	if err != nil {
		return "", err
	}
	want := http.StatusAccepted
	if wantCached {
		want = http.StatusOK
	}
	var sr submitReply
	if code != want || json.Unmarshal(data, &sr) != nil || sr.Cached != wantCached {
		return "", fmt.Errorf("HTTP %d (want %d): %s", code, want, bytes.TrimSpace(data))
	}
	return sr.JobID, nil
}

// servingMetrics sets the end-to-end metrics shared by the open-loop
// workloads that setLatency does not. repaired_ratio reads 1 (no fault
// reports, none unrepaired) unless the caller measures it.
func servingMetrics(rep *report, c *child, lat []float64, ops []sent, last time.Time, setupS float64) error {
	rss, err := peakRSSMB(c.pid())
	if err != nil {
		return err
	}
	rep.set("setup_s", setupS)
	rep.set("throughput_rps", float64(len(lat))/last.Sub(ops[0].due).Seconds())
	rep.set("peak_rss_mb", rss)
	rep.set("repaired_ratio", 1) // no fault reports: none unrepaired
	return nil
}

// lateP99 is how late the generator ran, at its 99th percentile.
func lateP99(ops []sent) float64 {
	late := make([]float64, len(ops))
	for i, o := range ops {
		late[i] = ms(o.late)
	}
	return percentile(late, 99)
}

// servedState is a booted, pre-filled server.
type servedState struct {
	c    *child
	docs map[string][]byte
	q    quality
}

func runServeHot(cfg config, rep *report) error {
	p := loadgen.Profile{Name: "serve-hot", OpenLoop: true, Rate: hotRate, Concurrency: conns,
		Zipf: 1.1, SeedVariants: 1}
	sch, err := buildSchedule(p, loadgen.Options{Seed: cfg.Seed, Duration: cfg.Window, Imax: serveImax}, nil)
	if err != nil {
		return err
	}
	bodies := servedBodies(1)
	setup := func() (servedState, error) {
		c, err := startServer(cfg.Server, cfg.Workers, conns, len(sch.Items)+len(bodies)*2)
		if err != nil {
			return servedState{}, err
		}
		docs, q, err := prefill(c, bodies)
		if err == nil {
			// Warm-up: one hit per key before the window opens.
			for _, b := range bodies {
				if _, err = submit(c, b, true); err != nil {
					break
				}
			}
		}
		if err != nil {
			c.stop()
			return servedState{}, err
		}
		return servedState{c: c, docs: docs, q: q}, nil
	}
	st, setupS, err := medianSetup(setupReps, setup, func(s servedState) { s.c.stop() })
	if err != nil {
		return err
	}
	defer st.c.stop()
	checkQuality(rep, "served Table I (Imax 60)", st.q, cfg.Expect.Served)
	for _, it := range sch.Items {
		if _, ok := st.docs[string(it.Body)]; !ok {
			return fmt.Errorf("schedule item %s is not pre-filled", it.Source)
		}
	}

	before, err := st.c.promCounters()
	if err != nil {
		return err
	}
	ops := openLoop(time.Now().Add(20*time.Millisecond), sch.Items, func(it loadgen.Item) (string, error) {
		return submit(st.c, it.Body, true)
	})
	after, err := st.c.promCounters()
	if err != nil {
		return err
	}

	// Correctness, after the window: every hit serves the bytes the
	// warm-up miss produced.
	var lat, submitMs, probeMs []float64
	var last time.Time
	for i, o := range ops {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			note("op %d failed: %v", i, o.err)
			continue
		}
		code, doc, err := st.c.get("/v1/jobs/" + o.jobID + "/solution")
		if err != nil || code != http.StatusOK || !bytes.Equal(doc, st.docs[string(sch.Items[i].Body)]) {
			rep.failed++
			rep.wrong("op %d (%s): served solution differs from the warm-up miss (HTTP %d, %v)",
				i, sch.Items[i].Source, code, err)
			continue
		}
		lat = append(lat, ms(dueLatency(o.due, o.done)))
		if o.done.After(last) {
			last = o.done
		}
		if cfg.Trace {
			j, err := st.c.job(o.jobID)
			if err != nil {
				return err
			}
			if v, ok := j.spanMs("request"); ok {
				submitMs = append(submitMs, v)
			}
			if v, ok := j.spanMs("cache.probe"); ok {
				probeMs = append(probeMs, v)
			}
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no op completed")
	}
	setLatency(rep, lat, cfg.SLOms)
	if !cfg.Trace {
		return servingMetrics(rep, st.c, lat, ops, last, setupS)
	}
	decodeMs, err := decodeCost(st.docs, sch.Items)
	if err != nil {
		return err
	}
	rep.set("server.submit_ms", mean(submitMs))
	rep.set("server.cache_probe_ms", mean(probeMs))
	rep.set("solio.decode_ms", decodeMs)
	rep.set("solcache.hit_ratio", hitRatio(before, after))
	rep.set("gen.late_p99_ms", lateP99(ops))
	note("solio.Decode share of a hit: %.1f%% of server.submit_ms %.3f", 100*decodeMs/mean(submitMs), mean(submitMs))
	return nil
}

// decodeCost times solio.Decode — the hit path's materialization — on
// each served document and weights it by how often the schedule asks
// for that document.
func decodeCost(docs map[string][]byte, items []loadgen.Item) (float64, error) {
	cost := map[string]float64{}
	for body, doc := range docs {
		var ts []float64
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			if _, err := solio.Decode(bytes.NewReader(doc)); err != nil {
				return 0, err
			}
			ts = append(ts, ms(time.Since(t0)))
		}
		cost[body] = percentile(ts, 50)
	}
	total := 0.0
	for _, it := range items {
		total += cost[string(it.Body)]
	}
	return total / float64(len(items)), nil
}

// hitRatio is the solution cache's hit share between two scrapes.
func hitRatio(before, after map[string]float64) float64 {
	h := after["mfserved_cache_hits_total"] - before["mfserved_cache_hits_total"]
	m := after["mfserved_cache_misses_total"] - before["mfserved_cache_misses_total"]
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

func runServeCold(cfg config, rep *report) error {
	// SeedVariants this large makes every Table I request a distinct
	// key; the corpus adds seeded random assays, three of every four
	// requests, so the mix is lighter and more even than Table I alone.
	// Uniqueness is checked.
	p := loadgen.Profile{Name: "serve-cold", OpenLoop: true, Rate: coldRate, Concurrency: conns,
		CorpusSize: 21, SeedVariants: 1 << 62}
	sch, err := buildSchedule(p, loadgen.Options{Seed: cfg.Seed, Duration: cfg.Window, Imax: serveImax}, nil)
	if err != nil {
		return err
	}
	bodies := servedBodies(1)
	seen := map[string]bool{}
	for _, b := range bodies {
		seen[string(b)] = true
	}
	for _, it := range sch.Items {
		if seen[string(it.Body)] {
			return fmt.Errorf("schedule repeats a key (%s): the workload needs every key unique", it.Source)
		}
		seen[string(it.Body)] = true
	}
	setup := func() (servedState, error) {
		c, err := startServer(cfg.Server, cfg.Workers, conns, len(sch.Items)+len(bodies))
		if err != nil {
			return servedState{}, err
		}
		docs, q, err := prefill(c, bodies)
		if err != nil {
			c.stop()
			return servedState{}, err
		}
		return servedState{c: c, docs: docs, q: q}, nil
	}
	st, setupS, err := medianSetup(setupReps, setup, func(s servedState) { s.c.stop() })
	if err != nil {
		return err
	}
	defer st.c.stop()
	checkQuality(rep, "served Table I (Imax 60)", st.q, cfg.Expect.Served)

	before, err := st.c.promCounters()
	if err != nil {
		return err
	}
	ops := openLoop(time.Now().Add(20*time.Millisecond), sch.Items, func(it loadgen.Item) (string, error) {
		return submit(st.c, it.Body, false)
	})

	// After the window: each op ends at its job's finished timestamp.
	var lat, waitMs, schedMs, placeMs, routeMs, submitMs, probeMs, encMs []float64
	var last time.Time
	for i, o := range ops {
		rep.attempted++
		if o.err != nil {
			rep.failed++
			note("op %d failed: %v", i, o.err)
			continue
		}
		j, err := st.c.await(o.jobID)
		if err != nil {
			return err
		}
		if j.Status != "done" || j.Finished == nil {
			rep.failed++
			note("op %d (%s): job %s: %s", i, sch.Items[i].Source, j.Status, j.Error)
			continue
		}
		sol, err := auditServed(st.c, o.jobID)
		if err != nil {
			rep.failed++
			rep.wrong("op %d (%s): %v", i, sch.Items[i].Source, err)
			continue
		}
		lat = append(lat, ms(dueLatency(o.due, *j.Finished)))
		if j.Finished.After(last) {
			last = *j.Finished
		}
		if cfg.Trace {
			for _, x := range []struct {
				name string
				to   *[]float64
			}{{"queue.wait", &waitMs}, {"stage.schedule", &schedMs}, {"stage.place", &placeMs},
				{"stage.route", &routeMs}, {"cache.probe", &probeMs}} {
				v, _ := j.spanMs(x.name) // an absent queue.wait span is a zero wait
				*x.to = append(*x.to, v)
			}
			// A queued job's root span runs to its end, so the submit
			// handler's time is the client's round trip of the POST.
			submitMs = append(submitMs, ms(o.done.Sub(o.due.Add(o.late))))
			t0 := time.Now()
			if err := solio.Encode(&bytes.Buffer{}, sol); err != nil {
				return err
			}
			encMs = append(encMs, ms(time.Since(t0)))
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no op completed")
	}
	setLatency(rep, lat, cfg.SLOms)
	if !cfg.Trace {
		return servingMetrics(rep, st.c, lat, ops, last, setupS)
	}
	after, err := st.c.promCounters()
	if err != nil {
		return err
	}
	n := float64(len(lat))
	delta := func(k string) float64 { return (after[k] - before[k]) / n }
	rep.set("schedule.ms", mean(schedMs))
	rep.set("schedule.case1_binds", delta(`mfserved_schedule_bindings_total{case="1"}`))
	rep.set("schedule.case2_binds", delta(`mfserved_schedule_bindings_total{case="2"}`))
	rep.set("place.ms", mean(placeMs))
	rep.set("place.sa_moves", delta("mfserved_sa_moves_total"))
	moves := after["mfserved_sa_moves_total"] - before["mfserved_sa_moves_total"]
	rep.set("place.sa_accept_ratio", (after["mfserved_sa_accepted_total"]-before["mfserved_sa_accepted_total"])/max(1, moves))
	rep.set("route.ms", mean(routeMs))
	rep.set("route.tasks", delta("mfserved_route_tasks_total"))
	rep.set("route.astar_expanded", delta("mfserved_astar_expanded_total"))
	rep.set("route.slot_conflicts", delta("mfserved_route_slot_conflicts_total"))
	rep.set("route.dilations", delta("mfserved_route_dilations_total"))
	rep.set("solio.encode_ms", mean(encMs))
	rep.set("server.submit_ms", mean(submitMs))
	rep.set("server.cache_probe_ms", mean(probeMs))
	rep.set("solcache.hit_ratio", hitRatio(before, after))
	rep.set("jobq.queue_wait_p50_ms", percentile(waitMs, 50))
	rep.set("jobq.queue_wait_p99_ms", percentile(waitMs, 99))
	rep.set("gen.late_p99_ms", lateP99(ops))
	return nil
}

// auditServed fetches a job's solution and runs the independent
// auditor on it.
func auditServed(c *child, jobID string) (*core.Solution, error) {
	code, doc, err := c.get("/v1/jobs/" + jobID + "/solution")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("solution: HTTP %d %v", code, err)
	}
	sol, err := solio.DecodeUnvalidated(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	if err := core.Audit(sol).Err(); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	return sol, nil
}
