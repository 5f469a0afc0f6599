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
	// The pending move: the components it restaged (sj is -1 for a
	// single-component move), the terms the restaged nets held before it
	// in staging order (for a reject), and the smallest restaged net
	// index (len(term) when none).
	si, sj int
	saved  []float64
	first  int
}

// netTerm is one net's Eq. 3 term, Dist·CP from the integer doubled
// distance. The explicit conversion rounds the product before any sum
// sees it, so no platform may fuse it into an add and every caller gets
// the same bits.
func netTerm(p *Placement, n *Net) float64 {
	return float64(float64(p.dist2(n.A, n.B)) * 0.5 * n.CP)
}

func newEnergyFold(p *Placement, nets []Net) energyFold {
	n := len(nets)
	buf := make([]float64, 3*n)
	f := energyFold{
		p:     p,
		term:  buf[:n:n],
		pre:   buf[n : 2*n : 2*n],
		saved: buf[2*n : 2*n],
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
// and j counted once, under i. The nets are walked in place, and reject
// walks them again in the same order. The terms are the bits Energy adds
// (|a−b| = |b−a| exactly), but the delta sums them in a different order
// than the full-sum difference, so the two agree only to roundoff;
// pending gives the exact full sum.
func (f *energyFold) stage(ix *NetIndex, i, j int) float64 {
	f.si, f.sj = i, j
	p, term, nets := f.p, f.term, ix.nets
	saved := f.saved[:0]
	first := len(term)
	var after, before float64
	for _, k := range ix.byComp[i] {
		old, now := term[k], netTerm(p, &nets[k])
		saved = append(saved, old)
		term[k] = now
		first = min(first, int(k))
		after += now
		before += old
	}
	if j >= 0 {
		for _, k := range ix.byComp[j] {
			n := &nets[k]
			if n.touches(i) {
				continue
			}
			old, now := term[k], netTerm(p, n)
			saved = append(saved, old)
			term[k] = now
			first = min(first, int(k))
			after += now
			before += old
		}
	}
	f.saved, f.first = saved, first
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

// reject restores the terms the pending move replaced, walking the nets
// in stage's order.
func (f *energyFold) reject(ix *NetIndex) {
	x := 0
	for _, k := range ix.byComp[f.si] {
		f.term[k] = f.saved[x]
		x++
	}
	if f.sj >= 0 {
		for _, k := range ix.byComp[f.sj] {
			if ix.nets[k].touches(f.si) {
				continue
			}
			f.term[k] = f.saved[x]
			x++
		}
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
	mv    move // the move being judged, filled in place by transform
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
	f, mv := &c.f, &c.mv
	if !transform(f.p, spacing, c.r, mv) {
		c.infeasible++
		return
	}
	delta := f.stage(ix, mv.i, mv.j)
	if delta > -tieEps && delta < tieEps {
		delta = f.pending() - f.total()
	}
	if delta < 0 || metropolis(c.r.Float64(), -delta/t) {
		if e := f.commit(); e < c.bestE {
			c.bestE = e
			c.best.CopyFrom(f.p)
		}
		c.accepted++
		return
	}
	f.reject(ix)
	mv.undo(f.p)
	c.rejected++
}

// metropolisMargin is the relative slack of metropolis's two bounds:
// about 10^6 ulps, far wider than math.Exp's sub-ulp error and the few
// ulps of rounding in the cubics below.
const metropolisMargin = 1e-9

// metropolis reports u < math.Exp(y), the Metropolis acceptance of an
// uphill move (y = −Δ/t ≤ 0) for a uniform draw u, calling math.Exp only
// when two cubic bounds on exp(−a), a = −y, leave the answer open:
//
//	1 − a + a²/2 − a³/6  ≤  exp(−a)  ≤  1 / (1 + a + a²/2 + a³/6)
//
// (the Taylor remainders of exp at order 4 are never negative). A draw
// above the upper bound by the margin is a sure reject, one below the
// lower bound by the margin a sure accept; each is decided exactly as the
// math.Exp comparison would decide it, so the result — and so the anneal
// trajectory — is the same bit for bit. u == 0, a ≥ 700 (where the cubic
// stops bounding usefully and exp nears underflow) and NaN take the
// math.Exp path. FuzzMetropolisMatchesExp holds it to the comparison.
func metropolis(u, y float64) bool {
	if a := -y; u > 0 && a < 700 {
		if u*(1+a*(1+a*(0.5+a*(1.0/6)))) >= 1+metropolisMargin {
			return false
		}
		if u < (1-a*(1-a*(0.5-a*(1.0/6))))*(1-metropolisMargin) {
			return true
		}
	}
	return u < math.Exp(y)
}
