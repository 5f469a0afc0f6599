// Work-count regression: the deterministic work a synthesis does — how
// many simulated-annealing moves were accepted, rejected or illegal, and
// how many A* nodes the router expanded — is a pure function of (assay,
// allocation, options), like the solution itself. Pinning the counts
// exactly turns a divergence of the RNG stream or the search order into
// a failure that says which count moved and by how much, where a
// fingerprint mismatch only says that something did.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/core"
	"repro/internal/obs"
)

// workCounts are the deterministic work counters of one synthesis.
type workCounts struct {
	accepted, rejected, infeasible, expanded int64
}

// workSink folds sa.step and route.task events into workCounts.
type workSink struct{ c workCounts }

func (s *workSink) Event(e obs.Event) {
	switch e.Name {
	case "sa.step":
		acc, _ := e.Arg("accepted")
		rej, _ := e.Arg("rejected")
		inf, _ := e.Arg("infeasible")
		s.c.accepted += int64(acc)
		s.c.rejected += int64(rej)
		s.c.infeasible += int64(inf)
	case "route.task":
		exp, _ := e.Arg("expanded")
		s.c.expanded += int64(exp)
	}
}

// pinnedWorkCounts are the work counts of the proposed flow on each
// Table I benchmark at the paper's parameters (Imax 150, seed 1),
// captured before the anneal's acceptance test, its distance kernel and
// the router's heuristic field were rewritten; each rewrite keeps them.
var pinnedWorkCounts = map[string]workCounts{
	"PCR":        {accepted: 9262, rejected: 1312, infeasible: 2626, expanded: 0},
	"IVD":        {accepted: 8260, rejected: 1685, infeasible: 3255, expanded: 142},
	"CPA":        {accepted: 7844, rejected: 2505, infeasible: 2851, expanded: 362},
	"Synthetic1": {accepted: 6863, rejected: 3648, infeasible: 2689, expanded: 68},
	"Synthetic2": {accepted: 6101, rejected: 4309, infeasible: 2790, expanded: 954},
	"Synthetic3": {accepted: 5772, rejected: 4762, infeasible: 2666, expanded: 2746},
	"Synthetic4": {accepted: 5232, rejected: 4969, infeasible: 2999, expanded: 3803},
}

// TestWorkCountsPinned checks the pinned SA move outcomes and A*
// expansions of every Table I benchmark. The 13,200 moves of a default
// anneal (88 temperature steps × Imax 150) are checked as a sum too, so
// a cooling-schedule change is told apart from a stream divergence.
func TestWorkCountsPinned(t *testing.T) {
	for _, bm := range benchdata.All() {
		t.Run(bm.Name, func(t *testing.T) {
			var s workSink
			ctx := obs.Into(context.Background(), obs.New(&s))
			if _, err := core.SynthesizeContext(ctx, bm.Graph, bm.Alloc, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			got := s.c
			if moves := got.accepted + got.rejected + got.infeasible; moves%13200 != 0 {
				t.Errorf("%d SA moves, want a multiple of 13200 (one default anneal per placement attempt)", moves)
			}
			want, ok := pinnedWorkCounts[bm.Name]
			if !ok {
				t.Fatalf("no pinned work counts for %s", bm.Name)
			}
			if got != want {
				t.Errorf("work counts moved:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
