package main

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// layerSink folds the events the pipeline already emits through
// internal/obs into per-layer work counts and the anneal and quench
// spans. It lives here, in the benchmark, so the program gains no hook.
type layerSink struct {
	mu sync.Mutex

	annealAt, quenchAt map[int64]time.Duration // open spans by track
	anneal, quench     time.Duration

	saMoves, saAccepted int64
	case1, case2        int64
	routeTasks          int64
	expanded, conflicts int64
	dilations           int64
}

func newLayerSink() *layerSink {
	return &layerSink{annealAt: map[int64]time.Duration{}, quenchAt: map[int64]time.Duration{}}
}

// Event implements obs.Sink.
func (s *layerSink) Event(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Name {
	case "anneal":
		addSpan(e, s.annealAt, &s.anneal)
	case "quench":
		addSpan(e, s.quenchAt, &s.quench)
	case "sa.step":
		acc, _ := e.Arg("accepted")
		rej, _ := e.Arg("rejected")
		inf, _ := e.Arg("infeasible")
		s.saMoves += int64(acc + rej + inf)
		s.saAccepted += int64(acc)
	case "bind.case1":
		s.case1++
	case "bind.case2":
		s.case2++
	case "route.task":
		s.routeTasks++
		v, _ := e.Arg("expanded")
		s.expanded += int64(v)
		v, _ = e.Arg("slot_conflicts")
		s.conflicts += int64(v)
	case "route.dilate":
		s.dilations++
	}
}

// addSpan adds the time between a begin event and its end on the same
// track to *total.
func addSpan(e obs.Event, open map[int64]time.Duration, total *time.Duration) {
	switch e.Phase {
	case obs.PhaseBegin:
		open[e.TID] = e.TS
	case obs.PhaseEnd:
		if at, ok := open[e.TID]; ok {
			*total += e.TS - at
			delete(open, e.TID)
		}
	}
}
