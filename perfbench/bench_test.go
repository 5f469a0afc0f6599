package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
	// 1000 samples: p99 is the 990th, so ten samples lie beyond it.
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if p := percentile(many, 99); p != 990 || beyond(many, p) != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", p, beyond(many, p))
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestWithinShareCountsFailuresAsMisses(t *testing.T) {
	if got := withinShare([]float64{1, 2, 30}, 1, 10); got != 0.5 {
		t.Errorf("withinShare = %v, want 0.5 (2 of 4 sent)", got)
	}
}

// TestOpenLoopTimesFromDueTime pins the coordinated-omission rule: an op
// that waits for a busy sender is charged that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := time.Now()
	if got := dueLatency(due, due.Add(8*time.Millisecond)); got != 8*time.Millisecond {
		t.Errorf("dueLatency = %v, want 8ms", got)
	}
	// conns+1 ops all due at once, each taking 30ms: the last one must
	// wait for a sender and go out late.
	items := make([]loadgen.Item, conns+1)
	const service = 30 * time.Millisecond
	ops := openLoop(due, items, func(loadgen.Item) (string, error) {
		time.Sleep(service)
		return "", nil
	})
	last := ops[len(ops)-1]
	if last.late < service {
		t.Errorf("last op sent %v late, want at least %v", last.late, service)
	}
	if l := dueLatency(last.due, last.done); l < 2*service {
		t.Errorf("last op latency %v from its due time, want at least %v", l, 2*service)
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatches checks every metric name and unit, and that
// BENCHMARK.json at the repository root declares exactly the metrics
// this program prints, in the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}

	for _, set := range []struct {
		name     string
		code     []metricSpec
		declared []declared
	}{{"end_to_end", endToEnd, bench.EndToEnd}, {"per_layer", perLayer, bench.PerLayer}} {
		if len(set.code) != len(set.declared) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", set.name, len(set.code), len(set.declared))
			continue
		}
		seen := map[string]bool{}
		for i, m := range set.code {
			if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", set.name, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s twice", set.name, m.Name)
			}
			seen[m.Name] = true
			if d := set.declared[i]; d.Name != m.Name || d.Unit != m.Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s", set.name, i, m.Name, m.Unit, d.Name, d.Unit)
			}
		}
	}
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		found := false
		for _, wl := range workloads {
			found = found || wl.name == w.Name
		}
		if !found || exp.SLOms[w.Name] <= 0 {
			t.Errorf("workload %s: not implemented or no latency limit in expected.json", w.Name)
		}
	}
}

// TestReplayMatchesSynthesize: the staged replay is the same program
// as core.Synthesize, byte for byte, with tracing attached.
func TestReplayMatchesSynthesize(t *testing.T) {
	for _, name := range []string{"PCR", "Synthetic1"} {
		bm, err := benchdata.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{0, 7} {
			op := table1Op{bench: bm, opts: core.DefaultOptions()}
			op.opts.Place.Seed += seed
			sol, err := core.Synthesize(bm.Graph, bm.Alloc, op.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := canonicalDoc(sol)
			if err != nil {
				t.Fatal(err)
			}
			sink := newLayerSink()
			st, err := replay(obs.Into(context.Background(), obs.New(sink)), op)
			if err != nil {
				t.Fatalf("%s seed +%d: replay: %v", name, seed, err)
			}
			if !bytes.Equal(st.doc, want) {
				t.Errorf("%s seed +%d: replay document differs from core.Synthesize", name, seed)
			}
			if sink.quench <= 0 || sink.anneal <= 0 || sink.saMoves == 0 || sink.routeTasks == 0 {
				t.Errorf("%s seed +%d: sink saw no anneal/quench/route work: %+v", name, seed, sink)
			}
		}
	}
}

// TestComponentFaultsEditOneInFour: one lifecycle in compFaultEvery
// starts with a pre-flight failure of a component that has a spare; the
// rest of the traffic is loadgen's, and the edit depends on the seed
// alone.
func TestComponentFaultsEditOneInFour(t *testing.T) {
	p, err := sessionProfile()
	if err != nil {
		t.Fatal(err)
	}
	opts := loadgen.Options{Seed: 3, Duration: time.Second, Rate: 16, Concurrency: conns, Imax: serveImax}
	build := func(edit bool) []byte {
		s, err := loadgen.Build(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if edit {
			if err := withComponentFaults(s, opts.Seed); err != nil {
				t.Fatal(err)
			}
		}
		b, err := s.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	edited := build(true)
	if !bytes.Equal(edited, build(true)) {
		t.Fatal("edited schedule differs between two builds with one seed")
	}
	var plain, got loadgen.Schedule
	if err := json.Unmarshal(build(false), &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(edited, &got); err != nil {
		t.Fatal(err)
	}
	compFaults := 0
	for i, it := range got.Items {
		for k, f := range it.Faults {
			if it.Index%compFaultEvery != compFaultEvery-1 || k > 0 {
				if !bytes.Equal(f, plain.Items[i].Faults[k]) {
					t.Errorf("item %d report %d changed: %s", i, k, f)
				}
				continue
			}
			var fr struct {
				At    int
				Cells []json.RawMessage
				Comps []int
			}
			if err := json.Unmarshal(f, &fr); err != nil || fr.At != 0 || len(fr.Cells) != 0 || len(fr.Comps) != 1 {
				t.Fatalf("item %d: want one component lost at 0, got %s (%v)", i, f, err)
			}
			var req struct{ Bench string }
			if err := json.Unmarshal(it.Body, &req); err != nil {
				t.Fatal(err)
			}
			bm, err := benchdata.ByName(req.Bench)
			if err != nil {
				t.Fatal(err)
			}
			comps := bm.Alloc.Instantiate()
			kind, spares := comps[fr.Comps[0]].Kind.Type, 0
			for _, c := range comps {
				if c.Kind.Type == kind {
					spares++
				}
			}
			if spares < 2 {
				t.Errorf("item %d loses %s, which has no spare", i, comps[fr.Comps[0]].Name())
			}
			compFaults++
		}
	}
	if want := len(got.Items) / compFaultEvery; compFaults != want {
		t.Errorf("%d lifecycles lose a component, want %d of %d", compFaults, want, len(got.Items))
	}
}
