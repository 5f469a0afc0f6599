// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V), plus ablations of the design choices called out
// in DESIGN.md. Each benchmark reports the relevant quantities via
// b.ReportMetric so `go test -bench=. -benchmem` prints the same series
// the paper plots; cmd/mfbench renders them as the actual table/figures.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/schedule"
)

// benchOpts keeps SA effort moderate so the full suite runs quickly while
// preserving all quality-relevant parameters.
func benchOpts() repro.Options {
	o := repro.DefaultOptions()
	o.Place.Imax = 60
	return o
}

// BenchmarkTableI regenerates Table I: for every benchmark it runs the
// proposed synthesis and the baseline BA and reports execution time,
// resource utilization and total channel length.
func BenchmarkTableI(b *testing.B) {
	for _, bm := range benchdata.All() {
		bm := bm
		for _, algo := range []string{"ours", "BA"} {
			algo := algo
			b.Run(bm.Name+"/"+algo, func(b *testing.B) {
				var m repro.Metrics
				for i := 0; i < b.N; i++ {
					var sol *repro.Solution
					var err error
					if algo == "ours" {
						sol, err = repro.Synthesize(bm.Graph, bm.Alloc, benchOpts())
					} else {
						sol, err = repro.SynthesizeBaseline(bm.Graph, bm.Alloc, benchOpts())
					}
					if err != nil {
						b.Fatal(err)
					}
					m = sol.Metrics()
				}
				b.ReportMetric(m.ExecutionTime.Sec(), "exec_s")
				b.ReportMetric(100*m.Utilization, "Ur_%")
				b.ReportMetric(m.ChannelLength.MM(), "len_mm")
			})
		}
	}
}

// BenchmarkFig8CacheTime regenerates Fig. 8: total cache time in flow
// channels, proposed vs. baseline, per benchmark.
func BenchmarkFig8CacheTime(b *testing.B) {
	for _, bm := range benchdata.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var ours, ba repro.Metrics
			for i := 0; i < b.N; i++ {
				so, err := repro.Synthesize(bm.Graph, bm.Alloc, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				sb, err := repro.SynthesizeBaseline(bm.Graph, bm.Alloc, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				ours, ba = so.Metrics(), sb.Metrics()
			}
			b.ReportMetric(ours.CacheTime.Sec(), "cache_ours_s")
			b.ReportMetric(ba.CacheTime.Sec(), "cache_BA_s")
		})
	}
}

// BenchmarkFig9WashTime regenerates Fig. 9: total wash time of flow
// channels, proposed vs. baseline, per benchmark.
func BenchmarkFig9WashTime(b *testing.B) {
	for _, bm := range benchdata.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var ours, ba repro.Metrics
			for i := 0; i < b.N; i++ {
				so, err := repro.Synthesize(bm.Graph, bm.Alloc, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				sb, err := repro.SynthesizeBaseline(bm.Graph, bm.Alloc, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				ours, ba = so.Metrics(), sb.Metrics()
			}
			b.ReportMetric(ours.ChannelWashTime.Sec(), "wash_ours_s")
			b.ReportMetric(ba.ChannelWashTime.Sec(), "wash_BA_s")
		})
	}
}

// BenchmarkAblationCaseI isolates the Case-I binding rule of Algorithm 1:
// DCSA-aware scheduling versus earliest-ready-only scheduling (everything
// downstream of binding held identical).
func BenchmarkAblationCaseI(b *testing.B) {
	for _, name := range []string{"CPA", "Synthetic3"} {
		bm, err := benchdata.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			comps := bm.Alloc.Instantiate()
			var withCaseI, without schedule.Result
			for i := 0; i < b.N; i++ {
				a, err := schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				c, err := schedule.ScheduleBaseline(bm.Graph, comps, schedule.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				withCaseI, without = *a, *c
			}
			b.ReportMetric(withCaseI.Makespan.Sec(), "makespan_caseI_s")
			b.ReportMetric(without.Makespan.Sec(), "makespan_noCaseI_s")
			b.ReportMetric(float64(len(withCaseI.Transports)), "transports_caseI")
			b.ReportMetric(float64(len(without.Transports)), "transports_noCaseI")
		})
	}
}

// BenchmarkAblationRouteWeights isolates the Eq. 5 wash-weight guidance:
// weighted A* versus plain shortest feasible paths on identical schedules
// and placements.
func BenchmarkAblationRouteWeights(b *testing.B) {
	for _, name := range []string{"CPA", "Synthetic4"} {
		bm, err := benchdata.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts()
			comps := bm.Alloc.Instantiate()
			sched, err := schedule.Schedule(bm.Graph, comps, opts.Schedule)
			if err != nil {
				b.Fatal(err)
			}
			nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)
			pl, err := place.Anneal(comps, nets, opts.Place)
			if err != nil {
				b.Fatal(err)
			}
			// Dilate once to guarantee both variants route.
			pl = place.Dilate(pl, 1.5)
			var weighted, plain *route.Result
			for i := 0; i < b.N; i++ {
				weighted, err = route.Route(sched, comps, pl, opts.Route)
				if err != nil {
					b.Fatal(err)
				}
				plain, err = route.RouteUnweighted(sched, comps, pl, opts.Route)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(weighted.ChannelWash.Sec(), "wash_weighted_s")
			b.ReportMetric(plain.ChannelWash.Sec(), "wash_plain_s")
			b.ReportMetric(float64(weighted.UnionCells), "cells_weighted")
			b.ReportMetric(float64(plain.UnionCells), "cells_plain")
		})
	}
}

// BenchmarkAblationPlacementPriority isolates the connection-priority
// weighting of Eq. 4: SA driven by cp(i,j) versus SA driven by plain
// unweighted wirelength, evaluated on the Eq. 3 objective.
func BenchmarkAblationPlacementPriority(b *testing.B) {
	for _, name := range []string{"Synthetic2", "Synthetic4"} {
		bm, err := benchdata.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts()
			comps := bm.Alloc.Instantiate()
			sched, err := schedule.Schedule(bm.Graph, comps, opts.Schedule)
			if err != nil {
				b.Fatal(err)
			}
			nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)
			flat := make([]place.Net, len(nets))
			for i, n := range nets {
				flat[i] = place.Net{A: n.A, B: n.B, CP: 1, Tasks: n.Tasks}
			}
			var withPrio, withoutPrio float64
			for i := 0; i < b.N; i++ {
				a, err := place.Anneal(comps, nets, opts.Place)
				if err != nil {
					b.Fatal(err)
				}
				c, err := place.Anneal(comps, flat, opts.Place)
				if err != nil {
					b.Fatal(err)
				}
				withPrio = place.Energy(a, nets)
				withoutPrio = place.Energy(c, nets)
			}
			b.ReportMetric(withPrio, "energy_eq4")
			b.ReportMetric(withoutPrio, "energy_flat")
		})
	}
}

// BenchmarkSynthesisCPU measures the CPU-time column of Table I: the cost
// of one full proposed synthesis per benchmark.
func BenchmarkSynthesisCPU(b *testing.B) {
	for _, bm := range benchdata.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(bm.Graph, bm.Alloc, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnnealEnergy isolates the placement stage — the synthesis
// hot loop whose incremental energy evaluation this repo optimizes — on
// the largest benchmark.
func BenchmarkAnnealEnergy(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	comps := bm.Alloc.Instantiate()
	sched, err := schedule.Schedule(bm.Graph, comps, opts.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Anneal(comps, nets, opts.Place); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuenchSynthetic4 isolates the greedy quench that ends every
// anneal, on a fixed post-anneal Synthetic4 placement. Anneal's output is
// already at the quench's local optimum, so each op is the descent's
// final, verifying pass: every component scanned at every plane position
// in both rotations, with no move taken.
func BenchmarkQuenchSynthetic4(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	comps := bm.Alloc.Instantiate()
	sched, err := schedule.Schedule(bm.Graph, comps, opts.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)
	pl, err := place.Anneal(comps, nets, opts.Place)
	if err != nil {
		b.Fatal(err)
	}
	work := pl.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(pl)
		place.Quench(work, nets, opts.Place.Spacing)
	}
}

// BenchmarkAStarSynthetic4 isolates the routing stage on a fixed
// schedule and placement; allocations are reported because the A* core
// is designed to be allocation-free per task.
func BenchmarkAStarSynthetic4(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	comps := bm.Alloc.Instantiate()
	sched, err := schedule.Schedule(bm.Graph, comps, opts.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)
	pl, err := place.Anneal(comps, nets, opts.Place)
	if err != nil {
		b.Fatal(err)
	}
	pl = place.Dilate(pl, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(sched, comps, pl, opts.Route); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel runs the full seven-benchmark comparison (both
// algorithms) through the report worker pool, sequentially and with one
// worker per CPU — the wall-clock win of the parallel pipeline.
func BenchmarkSuiteParallel(b *testing.B) {
	benches := benchdata.All()
	opts := core.DefaultOptions()
	opts.Place.Imax = 60
	workerSet := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerSet = append(workerSet, n)
	}
	for _, workers := range workerSet {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := report.RunWorkers(benches, opts, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnnealPortfolio measures the multi-seed SA portfolio: K
// concurrent anneals whose wall-clock cost should stay well below K
// sequential ones on a multicore host.
func BenchmarkAnnealPortfolio(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic3")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 8} {
		k := k
		b.Run(map[int]string{1: "K=1", 8: "K=8"}[k], func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Place.Imax = 60
			opts.Portfolio = k
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(bm.Graph, bm.Alloc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControlLayer measures the control-layer extension: valve count
// and Hamming-distance switching of the proposed solution vs. the
// baseline (the optimization direction of the paper's conclusion).
func BenchmarkControlLayer(b *testing.B) {
	for _, name := range []string{"CPA", "Synthetic3"} {
		bm, err := benchdata.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var ours, ba repro.ControlAnalysis
			for i := 0; i < b.N; i++ {
				so, err := repro.Synthesize(bm.Graph, bm.Alloc, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				sb, err := repro.SynthesizeBaseline(bm.Graph, bm.Alloc, benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				ours, ba = repro.ControlLayer(so), repro.ControlLayer(sb)
			}
			b.ReportMetric(float64(ours.NumValves), "valves_ours")
			b.ReportMetric(float64(ba.NumValves), "valves_BA")
			b.ReportMetric(float64(ours.OptimizedSwitches), "switches_ours")
			b.ReportMetric(float64(ba.OptimizedSwitches), "switches_BA")
		})
	}
}

// BenchmarkStorageArchitecture quantifies the paper's Section I
// motivation: the same DCSA-aware binder running against distributed
// channel storage versus a conventional dedicated storage unit with a
// single multiplexed port (8 cells).
func BenchmarkStorageArchitecture(b *testing.B) {
	for _, bm := range benchdata.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			comps := bm.Alloc.Instantiate()
			var dcsa, ded *schedule.Result
			for i := 0; i < b.N; i++ {
				var err error
				dcsa, err = schedule.Schedule(bm.Graph, comps, schedule.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				ded, err = schedule.ScheduleDedicated(bm.Graph, comps, schedule.DefaultDedicatedOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(dcsa.Makespan.Sec(), "makespan_dcsa_s")
			b.ReportMetric(ded.Makespan.Sec(), "makespan_dedicated_s")
		})
	}
}

// BenchmarkAnnealTempered measures parallel tempering on the largest
// tracked benchmark: R replicas at a temperature ladder versus the
// single-seed anneal. On a multicore host the replicas of one round run
// concurrently, so R=4 should cost well under 4x the R=1 wall time; on
// one core it honestly serializes.
func BenchmarkAnnealTempered(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic3")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		k := k
		b.Run(fmt.Sprintf("R=%d", k), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Place.Imax = 60
			opts.Tempering = k
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(bm.Graph, bm.Alloc, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteParallel measures the concurrent slot-disjoint wave
// router against the sequential loop on a fixed schedule and placement.
// The routed Result is byte-identical in both configurations (pinned by
// TestParallelRoutingMatchesSequential); only the wall time may differ.
func BenchmarkRouteParallel(b *testing.B) {
	bm, err := benchdata.ByName("Synthetic4")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	comps := bm.Alloc.Instantiate()
	sched, err := schedule.Schedule(bm.Graph, comps, opts.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	nets := place.BuildNets(sched, opts.Place.Beta, opts.Place.Gamma)
	pl, err := place.Anneal(comps, nets, opts.Place)
	if err != nil {
		b.Fatal(err)
	}
	pl = place.Dilate(pl, 1.5)
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pr := opts.Route
			pr.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := route.Route(sched, comps, pl, pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
