package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/schedule"
	"repro/internal/session"
	"repro/internal/solio"
	"repro/internal/verify"
)

// refLifecycles is how many lifecycles, from the front of the
// schedule, the repair outcome metrics and the library cross-check
// cover. Every run completes them, so those figures depend on the seed
// alone.
const refLifecycles = 32

// repairReply is the subset of POST /v1/sessions/{id}/faults read here.
type repairReply struct {
	Record session.RepairRecord `json:"record"`
}

// lifecycle is one client's session: open, report each fault, close.
type lifecycle struct {
	item     loadgen.Item
	createMs float64
	repMs    []float64
	records  []session.RepairRecord
	err      error
}

// runLifecycle drives one session against the server. Each fault
// report is one op, timed from send to the repair's reply.
func runLifecycle(c *child, it loadgen.Item) lifecycle {
	lc := lifecycle{item: it}
	t0 := time.Now()
	code, data, err := c.post("/v1/sessions", it.Body)
	lc.createMs = ms(time.Since(t0))
	var sess struct {
		Cached  bool   `json:"cached"`
		Session string `json:"session"`
		Faults  string `json:"faults"`
	}
	if err == nil && (code != http.StatusCreated || json.Unmarshal(data, &sess) != nil || !sess.Cached) {
		err = fmt.Errorf("create: HTTP %d (want 201 from a pre-filled key): %s", code, bytes.TrimSpace(data))
	}
	if err != nil {
		lc.err = err
		return lc
	}
	for i, fr := range it.Faults {
		t0 := time.Now()
		code, data, err := c.post(sess.Faults, fr)
		d := time.Since(t0)
		var rr repairReply
		if err == nil && (code != http.StatusOK || json.Unmarshal(data, &rr) != nil) {
			err = fmt.Errorf("fault %d: HTTP %d: %s", i, code, bytes.TrimSpace(data))
		}
		if err != nil {
			lc.err = err
			return lc
		}
		lc.repMs = append(lc.repMs, ms(d))
		lc.records = append(lc.records, rr.Record)
		if rr.Record.Outcome == session.OutcomeAbandoned {
			return lc // an abandoned session takes no more reports and needs no close
		}
	}
	if code, data, err := c.post(sess.Session+"/close", nil); err != nil || code != http.StatusOK {
		lc.err = fmt.Errorf("close: HTTP %d %v: %s", code, err, bytes.TrimSpace(data))
	}
	return lc
}

// sessionRate is the lifecycle arrival rate: two fault reports each, so
// 100 reports/s, about a fifth of what two back-to-back clients reach on
// a 2-vCPU host.
const sessionRate = 50

// sessionProfile is loadgen's session shape — the mix, the seeded fault
// reports — with the benchmark's sender count, its lifecycles arriving
// at fixed offsets. Run back to back, its throughput and the number of
// sessions it leaves behind (and so peak RSS) followed the host's speed
// and moved by a third between runs; at a fixed rate both are set by
// the schedule.
func sessionProfile() (loadgen.Profile, error) {
	p, err := loadgen.ByName("session")
	p.Concurrency = conns
	p.OpenLoop = true
	return p, err
}

// compFaultEvery sets the share of lifecycles that lose a component:
// one in this many. loadgen's session shape reports dead cells only,
// which the reroute rung absorbs; a lost component skips reroute, so
// these lifecycles are the ones that reach schedule suffix repair.
const compFaultEvery = 4

// withComponentFaults replaces the first fault report of every
// compFaultEvery-th lifecycle with a component that fails its
// pre-flight test (at 0, before any operation has run). The component
// is drawn from seed among those whose type has a spare, so the assay
// stays feasible. The other reports are loadgen's.
func withComponentFaults(s *loadgen.Schedule, seed uint64) error {
	src := rng.New(seed)
	for i := range s.Items {
		it := &s.Items[i]
		if it.Index%compFaultEvery != compFaultEvery-1 || len(it.Faults) == 0 {
			continue
		}
		var req struct {
			Bench string `json:"bench"`
		}
		if err := json.Unmarshal(it.Body, &req); err != nil {
			return err
		}
		bm, err := benchdata.ByName(req.Bench)
		if err != nil {
			return err
		}
		// Component IDs follow chip.Allocation.Instantiate: by type, then
		// by index within the type.
		var spare []chip.CompID
		id := 0
		for _, n := range bm.Alloc {
			for k := 0; k < n; k++ {
				if n > 1 {
					spare = append(spare, chip.CompID(id))
				}
				id++
			}
		}
		if len(spare) == 0 {
			return fmt.Errorf("%s has no component type with a spare", bm.Name)
		}
		it.Faults[0] = json.RawMessage(fmt.Sprintf(`{"at":0,"comps":[%d]}`, spare[src.Intn(len(spare))]))
	}
	return nil
}

// tally counts repair outcomes, and the rung of every accepted repair.
func tally(lcs []lifecycle) (outcomes, rungs map[string]int) {
	outcomes, rungs = map[string]int{}, map[string]int{}
	for _, lc := range lcs {
		for _, r := range lc.records {
			outcomes[r.Outcome]++
			if r.Outcome != session.OutcomeAbandoned {
				rungs[r.Rung]++
			}
		}
	}
	return outcomes, rungs
}

func runSession(cfg config, rep *report) error {
	p, err := sessionProfile()
	if err != nil {
		return err
	}
	sch, err := buildSchedule(p, loadgen.Options{Seed: cfg.Seed, Duration: cfg.Window, Rate: sessionRate,
		Concurrency: conns, Imax: serveImax}, func(s *loadgen.Schedule) error { return withComponentFaults(s, cfg.Seed) })
	if err != nil {
		return err
	}
	if len(sch.Items) < refLifecycles {
		return fmt.Errorf("only %d lifecycles in the window, need %d", len(sch.Items), refLifecycles)
	}
	ref, err := loadgen.Build(p, loadgen.Options{Seed: 0, Duration: time.Second, Rate: 8,
		Concurrency: conns, Imax: serveImax})
	if err == nil {
		err = withComponentFaults(ref, 0)
	}
	if err != nil {
		return err
	}

	// The session profile draws synthesis seeds 1 and 2; both are
	// pre-filled so every session opens on a cached solution.
	hot, other := servedBodies(1), servedBodies(2)
	setup := func() (servedState, error) {
		c, err := startServer(cfg.Server, cfg.Workers, conns, 64)
		if err != nil {
			return servedState{}, err
		}
		docs, q, err := prefill(c, hot)
		if err == nil {
			var more map[string][]byte
			if more, _, err = prefill(c, other); err == nil {
				for k, v := range more {
					docs[k] = v
				}
			}
		}
		if err != nil {
			c.stop()
			return servedState{}, err
		}
		// Warm-up: the fixed reference lifecycles, whose outcome and
		// rung tallies are recorded in expected.json.
		var lcs []lifecycle
		for _, it := range ref.Items {
			lc := runLifecycle(c, it)
			if lc.err != nil {
				c.stop()
				return servedState{}, fmt.Errorf("reference lifecycle %d: %w", it.Index, lc.err)
			}
			lcs = append(lcs, lc)
		}
		outcomes, rungs := tally(lcs)
		if want := cfg.Expect.SessionReference; !sameTally(outcomes, want.Outcomes) || !sameTally(rungs, want.Rungs) {
			c.stop()
			return servedState{}, fmt.Errorf("reference repair outcomes %v and rungs %v, recorded %v and %v",
				outcomes, rungs, want.Outcomes, want.Rungs)
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

	// Open loop over lifecycles; within one, the reports go back to back.
	lcs := make([]lifecycle, len(sch.Items))
	ops := openLoop(time.Now().Add(20*time.Millisecond), sch.Items, func(it loadgen.Item) (string, error) {
		lcs[it.Index] = runLifecycle(st.c, it)
		return "", lcs[it.Index].err
	})

	var lat []float64
	var last time.Time
	for i, lc := range lcs {
		rep.attempted += len(lc.repMs)
		for k, d := range lc.repMs {
			if k == 0 {
				// A lifecycle that started late charges the wait to its
				// first report, so a stall is not hidden.
				d += ms(ops[i].late)
			}
			lat = append(lat, d)
		}
		if ops[i].done.After(last) {
			last = ops[i].done
		}
		if lc.err != nil {
			// The report that failed, and the ones it stranded, are failed ops.
			rep.attempted += len(lc.item.Faults) - len(lc.repMs)
			rep.failed += len(lc.item.Faults) - len(lc.repMs)
			note("lifecycle %d failed: %v", i, lc.err)
		}
	}
	if len(lat) == 0 {
		return fmt.Errorf("no op completed")
	}
	head := lcs[:refLifecycles]
	for _, lc := range head {
		if lc.err != nil {
			return fmt.Errorf("reference lifecycle %d failed: %w", lc.item.Index, lc.err)
		}
	}
	lib, err := replayLifecycles(head, st.docs, cfg.Trace)
	if err != nil {
		return err
	}
	for _, w := range lib.wrong {
		rep.failed++
		rep.wrong("%s", w)
	}

	counts, rungs := tally(head)
	reports := 0
	for _, n := range counts {
		reports += n
	}
	setLatency(rep, lat, cfg.SLOms)
	if !cfg.Trace {
		if err := servingMetrics(rep, st.c, lat, ops, last, setupS); err != nil {
			return err
		}
		rep.set("repaired_ratio", float64(counts[session.OutcomeRepaired]+counts[session.OutcomeDegraded])/float64(reports))
		note("repair outcomes of the first %d lifecycles: %v, rungs %v", refLifecycles, counts, rungs)
		return nil
	}
	var createMs, repairMs []float64
	for _, lc := range lcs {
		createMs = append(createMs, lc.createMs)
		for _, r := range lc.records {
			repairMs = append(repairMs, ms(r.Dur))
		}
	}
	n := float64(reports)
	rep.set("session.create_ms", mean(createMs))
	rep.set("session.repair_ms", mean(repairMs))
	rep.set("session.rung.reroute", float64(rungs[session.RungReroute]))
	rep.set("session.rung.reschedule", float64(rungs[session.RungReschedule]))
	rep.set("session.rung.dilate", float64(rungs[session.RungDilate]))
	rep.set("session.rung.reduced_sa", float64(rungs[session.RungSA]))
	rep.set("session.abandoned", float64(counts[session.OutcomeAbandoned]))
	rep.set("verify.audit_ms", mean(lib.auditMs))
	rep.set("schedule.suffix_ms", mean(lib.suffixMs))
	rep.set("gen.late_p99_ms", lateP99(ops))
	rep.set("route.tasks", float64(lib.sink.routeTasks)/n)
	rep.set("route.astar_expanded", float64(lib.sink.expanded)/n)
	rep.set("route.slot_conflicts", float64(lib.sink.conflicts)/n)
	return nil
}

// sameTally reports whether two tallies agree on every key; a key
// missing from one counts as 0.
func sameTally(got, want map[string]int) bool {
	for k, n := range want {
		if got[k] != n {
			return false
		}
	}
	for k, n := range got {
		if want[k] != n {
			return false
		}
	}
	return len(want) > 0
}

// libraryReplay is the in-process cross-check of served repairs.
type libraryReplay struct {
	wrong    []string
	auditMs  []float64
	suffixMs []float64
	sink     *layerSink
}

// replayLifecycles repeats each lifecycle's repairs through the
// session library on the served solution and requires the server's
// outcome, rung and solution fingerprint for every report. Traced, it
// also times verify.AuditRepair on each accepted repair, with the
// repair contract the session applies, and
// schedule.RescheduleSuffixContext on each repair the reschedule rung
// accepted, and folds the repair's routing events into a sink.
func replayLifecycles(lcs []lifecycle, docs map[string][]byte, traced bool) (*libraryReplay, error) {
	out := &libraryReplay{sink: newLayerSink()}
	ctx := context.Background()
	if traced {
		ctx = obs.Into(ctx, obs.New(out.sink))
	}
	for _, lc := range lcs {
		var req struct {
			Bench   string `json:"bench"`
			Options struct {
				Imax int    `json:"imax"`
				Seed uint64 `json:"seed"`
			} `json:"options"`
		}
		if err := json.Unmarshal(lc.item.Body, &req); err != nil {
			return nil, err
		}
		bm, err := benchdata.ByName(req.Bench)
		if err != nil {
			return nil, err
		}
		sol, err := solio.Decode(bytes.NewReader(docs[string(lc.item.Body)]))
		if err != nil {
			return nil, err
		}
		// The server pins the request's resolved options on the session.
		sol.Opts.Place.Imax, sol.Opts.Place.Seed = req.Options.Imax, req.Options.Seed
		sess, err := session.New("ref", sol, bm.Alloc)
		if err != nil {
			return nil, err
		}
		banned := make([]bool, len(sol.Comps))
		var defects []route.Cell
		for i, served := range lc.records {
			var fr session.FaultReport
			if err := json.Unmarshal(lc.item.Faults[i], &fr); err != nil {
				return nil, err
			}
			prev := sess.Solution()
			got, rerr := sess.Repair(ctx, fr)
			if got.Outcome != served.Outcome || got.Rung != served.Rung || got.Fingerprint != served.Fingerprint {
				out.wrong = append(out.wrong, fmt.Sprintf("lifecycle %d report %d: server %s/%s %.12s, library %s/%s %.12s (%v)",
					lc.item.Index, i, served.Outcome, served.Rung, served.Fingerprint,
					got.Outcome, got.Rung, got.Fingerprint, rerr))
				break
			}
			for _, c := range fr.Comps {
				banned[c] = true
			}
			for _, c := range fr.Cells {
				if !containsCell(defects, c) {
					defects = append(defects, c)
				}
			}
			if !traced || rerr != nil {
				continue
			}
			next := sess.Solution()
			t0 := time.Now()
			arep := verify.AuditRepair(verify.Input{Assay: next.Assay, Comps: next.Comps, Schedule: next.Schedule,
				Placement: next.Placement, Routing: next.Routing}, verify.RepairSpec{
				At: fr.At, Banned: banned, Defects: defects,
				PrevSchedule: prev.Schedule, PrevRouting: prev.Routing, PrevPlacement: prev.Placement,
				PlacementFrozen: got.Rung == session.RungReroute || got.Rung == session.RungReschedule,
			})
			out.auditMs = append(out.auditMs, ms(time.Since(t0)))
			if err := arep.Err(); err != nil {
				out.wrong = append(out.wrong, fmt.Sprintf("lifecycle %d report %d: repair audit: %v", lc.item.Index, i, err))
			}
			if got.Rung == session.RungReschedule {
				t0 := time.Now()
				if _, err := schedule.RescheduleSuffixContext(context.Background(), prev.Schedule, fr.At, banned); err != nil {
					out.wrong = append(out.wrong, fmt.Sprintf("lifecycle %d report %d: suffix reschedule: %v", lc.item.Index, i, err))
				}
				out.suffixMs = append(out.suffixMs, ms(time.Since(t0)))
			}
		}
	}
	return out, nil
}

func containsCell(cells []route.Cell, c route.Cell) bool {
	for _, k := range cells {
		if k == c {
			return true
		}
	}
	return false
}
