// Command perfbench is the repository's benchmark: one command that runs
// a named workload for a fixed time from a seed, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as one JSON object on its last line. README.md in this
// directory records why each workload exists and what each metric
// should move.
//
//	go run . -workload table1 -seed 1 -seconds 20 -trace 0
//
// Workloads: table1 (in-process Table I synthesis), serve-hot and
// serve-cold (open-loop HTTP against a real mfserved child), session
// (open-loop chip-session fault repair against mfserved). The serving
// workloads need the mfserved binary; run.sh builds it and passes its
// path in -server.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd lists the metrics every untraced run prints, in print order.
// BENCHMARK.json at the repository root declares the same names
// (TestBenchmarkJSONMatches keeps the two in step).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"slo_ok_ratio", "ratio"},
	{"correct_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"makespan_s", "assay_s"},
	{"channel_length_mm", "mm"},
	{"channel_wash_s", "assay_s"},
	{"repaired_ratio", "ratio"},
}

// perLayer lists the metrics every traced run prints. A layer a
// workload does not reach reads 0 there; README.md says which workload
// measures each. latency_p99_ms is here rather than in endToEnd because
// it cannot be gated on a shared host (see setLatency).
var perLayer = []metricSpec{
	{"schedule.ms", "ms"},
	{"schedule.case1_binds", "count/op"},
	{"schedule.case2_binds", "count/op"},
	{"schedule.suffix_ms", "ms"},
	{"place.ms", "ms"},
	{"place.anneal_ms", "ms"},
	{"place.quench_ms", "ms"},
	{"place.sa_moves", "count/op"},
	{"place.sa_accept_ratio", "ratio"},
	{"place.allocs", "count/op"},
	{"route.ms", "ms"},
	{"route.tasks", "count/op"},
	{"route.astar_expanded", "count/op"},
	{"route.slot_conflicts", "count/op"},
	{"route.dilations", "count/op"},
	{"route.allocs", "count/op"},
	{"verify.audit_ms", "ms"},
	{"solio.encode_ms", "ms"},
	{"solio.decode_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.cache_probe_ms", "ms"},
	{"solcache.hit_ratio", "ratio"},
	{"jobq.queue_wait_p50_ms", "ms"},
	{"jobq.queue_wait_p99_ms", "ms"},
	{"session.create_ms", "ms"},
	{"session.repair_ms", "ms"},
	{"session.rung.reroute", "count"},
	{"session.rung.reschedule", "count"},
	{"session.rung.dilate", "count"},
	{"session.rung.reduced_sa", "count"},
	{"session.abandoned", "count"},
	{"core.synthesize_ms.PCR", "ms"},
	{"core.synthesize_ms.IVD", "ms"},
	{"core.synthesize_ms.CPA", "ms"},
	{"core.synthesize_ms.Synthetic1", "ms"},
	{"core.synthesize_ms.Synthetic2", "ms"},
	{"core.synthesize_ms.Synthetic3", "ms"},
	{"core.synthesize_ms.Synthetic4", "ms"},
	{"latency_p99_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// expectedJSON holds each workload's latency limit and the recorded
// values the deterministic outputs must reproduce.
//
//go:embed expected.json
var expectedJSON []byte

type quality struct {
	MakespanS       float64 `json:"makespan_s"`
	ChannelLengthMM float64 `json:"channel_length_mm"`
	ChannelWashS    float64 `json:"channel_wash_s"`
}

type expectations struct {
	// SLOms is each workload's per-op latency limit for slo_ok_ratio:
	// twice the median latency_p99_ms of five 20 s runs (seeds 1-5) on a
	// 2-vCPU host, rounded up to a whole millisecond.
	SLOms map[string]float64 `json:"slo_ms"`
	// Table1 is the Table I suite at the paper's parameters (Imax 150).
	Table1 quality `json:"table1_quality"`
	// Served is the Table I suite at the serving effort (Imax 60, seed 1)
	// as mfserved returns it.
	Served quality `json:"served_quality"`
	// SessionReference is the repair outcome tally, and the rung tally
	// of accepted repairs, of the fixed reference lifecycles the session
	// workload warms up with.
	SessionReference struct {
		Outcomes map[string]int `json:"outcomes"`
		Rungs    map[string]int `json:"rungs"`
	} `json:"session_reference"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	dec := json.NewDecoder(bytes.NewReader(expectedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// config is what every workload receives.
type config struct {
	Seed    uint64
	Window  time.Duration
	Trace   bool
	Server  string // mfserved binary (serving workloads)
	Workers int
	Expect  *expectations
	SLOms   float64
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// wrong records an incorrect output. It makes the run incorrect; the
// caller decides whether it also counts as a failed op.
func (r *report) wrong(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note prints a human-readable line ahead of the JSON result.
func note(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

type workload struct {
	name string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"table1", runTable1},
	{"serve-hot", runServeHot},
	{"serve-cold", runServeCold},
	{"session", runSession},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow boot does not move it.
const setupReps = 5

// medianSetup runs setup reps times, keeping the last result, and
// returns it with the median set-up time. Every earlier result is
// released with drop.
func medianSetup[T any](reps int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			drop(v)
		}
		last = v
	}
	sort.Float64s(times)
	return last, times[len(times)/2], nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: table1, serve-hot, serve-cold or session")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
		server  = flag.String("server", "", "mfserved binary for the serving workloads")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in %v, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		Seed: *seed, Window: time.Duration(*seconds) * time.Second, Trace: *trace == 1,
		Server: *server, Workers: runtime.NumCPU(), Expect: exp, SLOms: exp.SLOms[wl.name],
	}
	if cfg.SLOms <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: expected.json has no latency limit for %s\n", wl.name)
		return 2
	}
	note("workload %s seed %d window %v trace %v workers %d", wl.name, cfg.Seed, cfg.Window, cfg.Trace, cfg.Workers)
	rep := newReport()
	if err := wl.run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	return emit(rep, cfg.Trace)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metricJSON is one entry of the result's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable metric lines and the JSON result, and
// returns the exit code: 1 when any output was incorrect.
func emit(rep *report, traced bool) int {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricJSON{}}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if !ok && !traced {
			fmt.Fprintf(os.Stderr, "perfbench: workload did not measure %s\n", s.Name)
			return 2
		}
		out.Metrics[s.Name] = metricJSON{Value: v, Unit: s.Unit}
		note("%-32s %14.6g %s", s.Name, v, s.Unit)
	}
	for i, p := range rep.problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: and %d more incorrect outputs\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", p)
	}
	if len(rep.problems) > 0 {
		note("INCORRECT: %d outputs, first: %s", len(rep.problems), rep.problems[0])
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// peakRSSMB reads VmHWM, the peak resident set, of a process from
// /proc ("self" for this one).
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
