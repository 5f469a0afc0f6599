package place

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Anneal runs the simulated-annealing placer of Algorithm 2 (lines 1-8):
// starting from a random placement, it applies transformation operations
// (translate, rotate, swap) for Imax iterations per temperature step,
// accepting uphill moves with probability exp(-Δ/T), and cools T
// geometrically by Alpha until Tmin. It returns the best placement seen.
//
// Every move costs O(degree), plus one pass of additions over a suffix of
// the net list when it is kept or nearly tied; no Eq. 3 term is
// evaluated for a net the move does not touch. The annealer keeps each
// net's term and the left fold of those terms (an energyFold), so the
// running total is always the float64 Energy would return. A term is
// Dist·CP with the distance taken in integers from doubled centres,
// |2(Xa−Xb)+(Wa−Wb)| + |2(Ya−Yb)+(Ha−Hb)|, then halved: centres are
// half-integers, so the halved value is exactly the float centre
// distance and the term carries the same bits. A move restages its
// incident nets' terms in place, walking the net index and saving the
// old terms in walk order so a reject replays the walk, and is judged
// on their delta; a near tie (|Δ| < tieEps) is judged on the full sum
// instead, resumed from the first restaged net, because there the
// incident-net roundoff (~1e-11) could decide whether the Metropolis
// draw is consumed at all. An uphill move draws u and is accepted when
// u < exp(−Δ/T), but most draws are decided by two
// cubic Taylor bounds on exp with a 1e-9 relative margin, so math.Exp
// runs only when u falls between them (metropolis). An accepted move
// commits its terms and rewrites the fold's suffix. The trajectory — RNG
// stream, running total and best-so-far comparisons — is therefore
// bit-identical to rescoring every accepted and near-tie move with
// Energy: FuzzAnnealMatchesReference checks that against a copy of that
// loop, FuzzMetropolisMatchesExp the acceptance test against math.Exp,
// and TestSolutionFingerprints, TestTemperedFingerprints and
// TestWorkCountsPinned (repo root) pin the resulting solutions and move
// counts.
func Anneal(comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	return AnnealContext(context.Background(), comps, nets, pr)
}

// AnnealContext is Anneal with cancellation: ctx is polled once per
// temperature step (and between quench passes), so a cancelled run
// aborts within one Imax move batch — microseconds to low milliseconds
// on the Table I benchmarks. The poll reads no annealer state and
// consumes no randomness, so an uncancelled context reproduces Anneal
// bit for bit.
func AnnealContext(ctx context.Context, comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	if pr.Alpha <= 0 || pr.Alpha >= 1 {
		return nil, fmt.Errorf("place: cooling factor alpha %v outside (0,1)", pr.Alpha)
	}
	if pr.T0 <= pr.Tmin || pr.Tmin <= 0 {
		return nil, fmt.Errorf("place: invalid temperature range T0=%v Tmin=%v", pr.T0, pr.Tmin)
	}
	r := rng.New(pr.Seed)
	p, err := randomPlacement(comps, w, h, pr.Spacing, r)
	if err != nil {
		return nil, err
	}
	ix := BuildNetIndex(len(comps), nets)
	c := newChain(p, nets, r)

	// Telemetry: one sample per temperature step, emitted at the step
	// boundary (the same place the cancellation poll sits). The hooks
	// read the chain's totals and move counters — they never touch the
	// RNG stream or the float comparisons, so a traced anneal is
	// bit-identical to an untraced one.
	tr := obs.From(ctx)
	tid := int64(pr.Seed)
	if tr.Enabled() {
		tr.NameTrack(tid, fmt.Sprintf("anneal seed %d", pr.Seed))
		tr.BeginTID(obs.CatPlace, "anneal", tid)
	}

	// The fault check shares the temperature-step poll boundary with the
	// ctx poll: outside the SA RNG path, so an un-armed plan cannot
	// perturb the anneal trajectory.
	flt := fault.From(ctx)
	for t := pr.T0; t > pr.Tmin; t *= pr.Alpha {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("place: anneal aborted at T=%.3g: %w", t, err)
		}
		if err := flt.Err(fault.PlaceStepFail); err != nil {
			return nil, fmt.Errorf("place: anneal aborted at T=%.3g: %w", t, err)
		}
		c.sweep(t, pr.Imax, pr.Spacing, ix)
		tr.AnnealStep(obs.AnnealStep{
			Seed: pr.Seed, Temp: t, Cur: c.f.total(), Best: c.bestE,
			Accepted: c.accepted, Rejected: c.rejected, Infeasible: c.infeasible,
		})
	}
	best := c.best
	if tr.Enabled() {
		tr.EndTID(obs.CatPlace, "anneal", tid)
		tr.BeginTID(obs.CatPlace, "quench", tid)
	}
	// Final quench: greedy single-component relocation until the weighted
	// energy reaches a local optimum. This is the standard low-temperature
	// tail of SA floorplanners, made explicit and deterministic.
	if err := quenchCtx(ctx, best, nets, ix, pr.Spacing); err != nil {
		return nil, err
	}
	if tr.Enabled() {
		tr.EndTID(obs.CatPlace, "quench", tid)
	}
	if err := best.Legal(pr.Spacing); err != nil {
		return nil, fmt.Errorf("place: annealer produced illegal placement: %w", err)
	}
	return best, nil
}

// Quench exhaustively relocates single components (including rotation)
// while any move strictly reduces the Eq. 3 energy: the deterministic
// greedy tail AnnealContext and the tempered annealer run after SA, for
// use on a placement that is already legal. Each component's candidates
// are scored by the relocScan kernel: O(1) per candidate from a
// summed-area occupancy table and separable cost rows, with near-ties
// decided by the full sums, so the descent is identical to scoring every
// candidate with the full Energy (see referenceQuench in the tests).
func Quench(p *Placement, nets []Net, spacing int) {
	_ = quenchCtx(context.Background(), p, nets, BuildNetIndex(len(p.Rects), nets), spacing)
}

// quenchCtx is Quench with a cancellation poll between descent passes.
func quenchCtx(ctx context.Context, p *Placement, nets []Net, ix *NetIndex, spacing int) error {
	s := newRelocScan(p.W, p.H)
	for improved := true; improved; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("place: quench aborted: %w", err)
		}
		improved = false
		for i := range p.Rects {
			if s.commit(p, i, s.relocate(p, ix, nets, i, spacing, true)) {
				improved = true
			}
		}
	}
	return nil
}

// fullLess reports whether placing component i at cand gives a strictly
// smaller full Eq. 3 sum than placing it at best, using exactly the bits
// a full-recompute comparison would see. Energy is a pure function of the
// rectangle configuration, so recomputing here reproduces the values the
// full-recompute quench would have cached.
func fullLess(p *Placement, nets []Net, i int, cand, best Rect) bool {
	save := p.Rects[i]
	p.Rects[i] = cand
	ec := Energy(p, nets)
	p.Rects[i] = best
	eb := Energy(p, nets)
	p.Rects[i] = save
	return ec < eb
}

// move records what one transformation operation changed, so a rejected
// move is undone without allocating. j is -1 for single-component moves.
type move struct {
	i, j   int
	oi, oj Rect
}

// undo restores the rectangles the move replaced.
func (m *move) undo(p *Placement) {
	p.Rects[m.i] = m.oi
	if m.j >= 0 {
		p.Rects[m.j] = m.oj
	}
}

// transform applies one random legal transformation operation to p and
// records it in *m. It returns false, leaving p and *m unchanged, when
// the sampled move was illegal. Scoring the move is the caller's
// (chain.step).
func transform(p *Placement, spacing int, r *rng.Source, m *move) bool {
	n := len(p.Rects)
	switch r.Intn(3) {
	case 0: // translate one component
		i := r.Intn(n)
		old := p.Rects[i]
		cand := old
		cand.X = spacing + r.Intn(max(1, p.W-2*spacing-cand.W+1))
		cand.Y = spacing + r.Intn(max(1, p.H-2*spacing-cand.H+1))
		if !fitsAt(p, i, cand, spacing) {
			return false
		}
		p.Rects[i] = cand
		m.i, m.j, m.oi = i, -1, old
		return true
	case 1: // rotate one component 90°
		i := r.Intn(n)
		old := p.Rects[i]
		cand := Rect{X: old.X, Y: old.Y, W: old.H, H: old.W}
		if !fitsAt(p, i, cand, spacing) {
			return false
		}
		p.Rects[i] = cand
		m.i, m.j, m.oi = i, -1, old
		return true
	default: // swap the positions of two components
		if n < 2 {
			return false
		}
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		oi, oj := p.Rects[i], p.Rects[j]
		ci := Rect{X: oj.X, Y: oj.Y, W: oi.W, H: oi.H}
		cj := Rect{X: oi.X, Y: oi.Y, W: oj.W, H: oj.H}
		// Temporarily clear both to test pairwise fits.
		p.Rects[i] = Rect{}
		p.Rects[j] = Rect{}
		okI := fitsAt(p, i, ci, spacing)
		p.Rects[i] = ci
		okJ := okI && fitsAt(p, j, cj, spacing)
		if !okI || !okJ {
			p.Rects[i] = oi
			p.Rects[j] = oj
			return false
		}
		p.Rects[j] = cj
		m.i, m.j, m.oi, m.oj = i, j, oi, oj
		return true
	}
}

// Construct is the baseline construction-by-correction placer the paper
// compares against: components are first packed greedily in ID order
// (construction), then a bounded number of sequential correction passes
// relocate each component to the position minimising plain unweighted
// wirelength to its neighbours. It is deliberately blind to connection
// priorities (concurrency and wash time).
func Construct(comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	return ConstructContext(context.Background(), comps, nets, pr)
}

// ConstructContext is Construct with a cancellation poll between
// correction passes; an uncancelled context reproduces Construct exactly.
func ConstructContext(ctx context.Context, comps []chip.Component, nets []Net, pr Params) (*Placement, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	p := &Placement{W: w, H: h, Rects: make([]Rect, len(comps))}
	// Construction: row-major packing in ID order.
	x, y, rowH := pr.Spacing, pr.Spacing, 0
	for i, c := range comps {
		fw, fh := c.Kind.W, c.Kind.H
		if x+fw > w-pr.Spacing {
			x = pr.Spacing
			y += rowH + pr.Spacing
			rowH = 0
		}
		if y+fh > h-pr.Spacing {
			return nil, fmt.Errorf("place: plane %dx%d too small for row packing", w, h)
		}
		p.Rects[i] = Rect{X: x, Y: y, W: fw, H: fh}
		x += fw + pr.Spacing
		if fh > rowH {
			rowH = fh
		}
	}
	// Unweighted nets: the baseline sees connectivity, not priorities.
	flat := make([]Net, len(nets))
	for i, n := range nets {
		flat[i] = Net{A: n.A, B: n.B, CP: 1}
	}
	ix := BuildNetIndex(len(comps), flat)
	// Correction: sequential single-component relocation passes through
	// the quench's scan kernel, in one rotation. nil nets select strict
	// "<": unit priorities make every sum exact, so ties need no fallback.
	const passes = 3
	s := newRelocScan(w, h)
	flt := fault.From(ctx)
	for pass := 0; pass < passes; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("place: baseline correction aborted: %w", err)
		}
		if err := flt.Err(fault.PlaceStepFail); err != nil {
			return nil, fmt.Errorf("place: baseline correction aborted: %w", err)
		}
		improved := false
		for i := range p.Rects {
			if s.commit(p, i, s.relocate(p, ix, nil, i, pr.Spacing, false)) {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if err := p.Legal(pr.Spacing); err != nil {
		return nil, fmt.Errorf("place: baseline produced illegal placement: %w", err)
	}
	return p, nil
}
