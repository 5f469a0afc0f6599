package place

import (
	"math"

	"repro/internal/rng"
)

// energyFold is a placement together with its Eq. 3 energy, held as the
// cached term of every net and the left fold of those terms:
//
//	term[k] = netTerm(p, nets[k])
//	pre[k]  = pre[k-1] + term[k]   (pre[-1] = +0)
//
// so pre[len-1] is exactly the float64 Energy(p, nets) computes — the
// same terms added in the same order. A move restages only the terms of
// its incident nets; the sum after the move is the fold resumed from the
// first restaged net, and committing the move rewrites that suffix of
// pre. No step ever sums in a different order than Energy, so the
// running total carries Energy's bits, not an approximation of them.
type energyFold struct {
	p    *Placement
	term []float64
	pre  []float64
	// The pending move: the nets it restaged, their terms before the
	// move (for a reject), and the smallest restaged index (len(term)
	// when none).
	staged []int32
	saved  []float64
	first  int
}

// netTerm is one net's Eq. 3 term. The explicit conversion rounds the
// product before any sum sees it, so no platform may fuse it into an
// add and every caller gets the same bits.
func netTerm(p *Placement, n *Net) float64 {
	return float64(p.Dist(n.A, n.B) * n.CP)
}

func newEnergyFold(p *Placement, nets []Net) energyFold {
	n := len(nets)
	buf := make([]float64, 3*n)
	f := energyFold{
		p:      p,
		term:   buf[:n:n],
		pre:    buf[n : 2*n : 2*n],
		saved:  buf[2*n : 2*n],
		staged: make([]int32, 0, n),
	}
	for k := range nets {
		f.term[k] = netTerm(p, &nets[k])
	}
	f.commit()
	return f
}

// total is the Eq. 3 energy of the committed placement.
func (f *energyFold) total() float64 {
	if len(f.pre) == 0 {
		return 0
	}
	return f.pre[len(f.pre)-1]
}

// stage restages the terms of every net incident to component i, and to
// component j when j >= 0, for the move already applied to f.p. It
// returns the move's delta as Σ new − Σ old over those nets, each sum a
// left fold in index order over i's nets and then j's, a net joining i
// and j counted once, under i. The terms are the bits Energy adds
// (|a−b| = |b−a| exactly), but the delta sums them in a different order
// than the full-sum difference, so the two agree only to roundoff;
// pending gives the exact full sum.
func (f *energyFold) stage(ix *NetIndex, i, j int) float64 {
	f.staged = append(f.staged[:0], ix.byComp[i]...)
	if j >= 0 {
		for _, k := range ix.byComp[j] {
			if n := &ix.nets[k]; int(n.A) != i && int(n.B) != i {
				f.staged = append(f.staged, k)
			}
		}
	}
	f.saved = f.saved[:len(f.staged)]
	f.first = len(f.term)
	var after, before float64
	for x, k := range f.staged {
		old, now := f.term[k], netTerm(f.p, &ix.nets[k])
		f.saved[x], f.term[k] = old, now
		f.first = min(f.first, int(k))
		after += now
		before += old
	}
	return after - before
}

// pending returns the Eq. 3 energy with the staged terms in place, by
// resuming the committed fold at the first staged net.
func (f *energyFold) pending() float64 {
	var e float64
	if f.first > 0 {
		e = f.pre[f.first-1]
	}
	for _, t := range f.term[f.first:] {
		e += t
	}
	return e
}

// commit keeps the staged terms, rewrites the fold from the first staged
// net on and returns the new total.
func (f *energyFold) commit() float64 {
	var e float64
	if f.first > 0 {
		e = f.pre[f.first-1]
	}
	for k := f.first; k < len(f.term); k++ {
		e += f.term[k]
		f.pre[k] = e
	}
	f.first = len(f.term)
	return f.total()
}

// reject restores the terms the pending move replaced.
func (f *energyFold) reject() {
	for x, k := range f.staged {
		f.term[k] = f.saved[x]
	}
	f.first = len(f.term)
}

// chain is one Metropolis walker — a placement and its energy fold, the
// RNG that drives it, and the best placement it has visited — shared by
// the plain annealer (one chain cooled step by step) and every rung of
// the tempered annealer (one chain per fixed temperature).
type chain struct {
	r     *rng.Source
	f     energyFold
	best  *Placement
	bestE float64
	// move outcomes of the last sweep, for telemetry
	accepted, rejected, infeasible int
}

func newChain(p *Placement, nets []Net, r *rng.Source) chain {
	f := newEnergyFold(p, nets)
	return chain{r: r, f: f, best: p.Clone(), bestE: f.total()}
}

// sweep runs imax Metropolis steps at temperature t.
func (c *chain) sweep(t float64, imax, spacing int, ix *NetIndex) {
	c.accepted, c.rejected, c.infeasible = 0, 0, 0
	for i := 0; i < imax; i++ {
		c.step(t, spacing, ix)
	}
}

// step samples one transformation and accepts it with probability
// min(1, exp(-Δ/t)). Δ comes from the incident nets, except within
// tieEps of zero: there the incident-net roundoff could decide whether
// the Metropolis draw is consumed at all, so Δ is taken from the exact
// full sum instead, and the RNG stream is the one a full-recompute
// annealer would consume.
func (c *chain) step(t float64, spacing int, ix *NetIndex) {
	f := &c.f
	mv, ok := transform(f.p, spacing, c.r)
	if !ok {
		c.infeasible++
		return
	}
	delta := f.stage(ix, mv.i, mv.j)
	if delta > -tieEps && delta < tieEps {
		delta = f.pending() - f.total()
	}
	if delta < 0 || c.r.Float64() < math.Exp(-delta/t) {
		if e := f.commit(); e < c.bestE {
			c.bestE = e
			c.best.CopyFrom(f.p)
		}
		c.accepted++
		return
	}
	f.reject()
	mv.undo(f.p)
	c.rejected++
}
