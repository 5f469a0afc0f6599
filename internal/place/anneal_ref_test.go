package place

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
)

// referenceAnneal is the simulated-annealing loop as it stood before the
// cached-term fold: each move is scored over its incident nets with
// NetIndex.CompEnergy (refPairEnergy for swaps), and every accepted or
// near-tie move is rescored with the full Energy sum. Legality is the
// pairwise refFitsAt. It returns the best placement before the quench and
// its energy. FuzzAnnealMatchesReference holds the production loop to
// this one bit for bit.
func referenceAnneal(comps []chip.Component, nets []Net, pr Params) (*Placement, float64, error) {
	w, h := pr.PlaneW, pr.PlaneH
	if w == 0 || h == 0 {
		w, h = AutoPlane(comps, pr.Spacing)
	}
	r := rng.New(pr.Seed)
	p, err := randomPlacement(comps, w, h, pr.Spacing, r)
	if err != nil {
		return nil, 0, err
	}
	ix := BuildNetIndex(len(comps), nets)
	cur := Energy(p, nets)
	best := p.Clone()
	bestE := cur
	for t := pr.T0; t > pr.Tmin; t *= pr.Alpha {
		for i := 0; i < pr.Imax; i++ {
			mv, delta, ok := refTransform(p, pr.Spacing, r, ix)
			if !ok {
				continue
			}
			next, haveNext := 0.0, false
			if delta > -tieEps && delta < tieEps {
				next, haveNext = Energy(p, nets), true
				delta = next - cur
			}
			if delta < 0 || r.Float64() < math.Exp(-delta/t) {
				if !haveNext {
					next = Energy(p, nets)
				}
				cur = next
				if cur < bestE {
					bestE = cur
					best.CopyFrom(p)
				}
			} else {
				mv.undo(p)
			}
		}
	}
	return best, bestE, nil
}

// refTransform is transform returning the incident-net delta the way the
// reference loop computed it.
func refTransform(p *Placement, spacing int, r *rng.Source, ix *NetIndex) (m move, delta float64, ok bool) {
	n := len(p.Rects)
	switch r.Intn(3) {
	case 0:
		i := r.Intn(n)
		old := p.Rects[i]
		cand := old
		cand.X = spacing + r.Intn(max(1, p.W-2*spacing-cand.W+1))
		cand.Y = spacing + r.Intn(max(1, p.H-2*spacing-cand.H+1))
		if !refFitsAt(p, i, cand, spacing) {
			return move{}, 0, false
		}
		before := ix.CompEnergy(p, i)
		p.Rects[i] = cand
		return move{i: i, j: -1, oi: old}, ix.CompEnergy(p, i) - before, true
	case 1:
		i := r.Intn(n)
		old := p.Rects[i]
		cand := Rect{X: old.X, Y: old.Y, W: old.H, H: old.W}
		if !refFitsAt(p, i, cand, spacing) {
			return move{}, 0, false
		}
		before := ix.CompEnergy(p, i)
		p.Rects[i] = cand
		return move{i: i, j: -1, oi: old}, ix.CompEnergy(p, i) - before, true
	default:
		if n < 2 {
			return move{}, 0, false
		}
		i := r.Intn(n)
		j := r.Intn(n - 1)
		if j >= i {
			j++
		}
		oi, oj := p.Rects[i], p.Rects[j]
		ci := Rect{X: oj.X, Y: oj.Y, W: oi.W, H: oi.H}
		cj := Rect{X: oi.X, Y: oi.Y, W: oj.W, H: oj.H}
		p.Rects[i] = Rect{}
		p.Rects[j] = Rect{}
		okI := refFitsAt(p, i, ci, spacing)
		p.Rects[i] = ci
		okJ := okI && refFitsAt(p, j, cj, spacing)
		p.Rects[i], p.Rects[j] = oi, oj
		if !okI || !okJ {
			return move{}, 0, false
		}
		before := refPairEnergy(ix, p, i, j)
		p.Rects[i], p.Rects[j] = ci, cj
		return move{i: i, j: j, oi: oi, oj: oj}, refPairEnergy(ix, p, i, j) - before, true
	}
}

// refPairEnergy is the Eq. 3 energy restricted to nets incident to
// component i or j, nets joining the pair counted once.
func refPairEnergy(ix *NetIndex, p *Placement, i, j int) float64 {
	e := ix.CompEnergy(p, i)
	for _, k := range ix.byComp[j] {
		n := &ix.nets[k]
		if int(n.A) == i || int(n.B) == i {
			continue
		}
		e += p.Dist(n.A, n.B) * n.CP
	}
	return e
}

// refFitsAt is the pairwise legality test with a branch per clause.
func refFitsAt(p *Placement, i int, cand Rect, spacing int) bool {
	if cand.X < spacing || cand.Y < spacing ||
		cand.X+cand.W > p.W-spacing || cand.Y+cand.H > p.H-spacing {
		return false
	}
	for j, r := range p.Rects {
		if j != i && r.W != 0 && cand.expandedOverlaps(r, spacing) {
			return false
		}
	}
	return true
}

// annealInstance decodes fuzz bytes into an annealing problem: 1–9
// components (some square), a spacing, Imax, a seed, and nets that may
// have zero priority, repeat a pair, or leave components netless.
func annealInstance(data []byte) ([]chip.Component, []Net, Params) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	n := 1 + next()%9
	pr := DefaultParams()
	pr.Spacing = next() % 4
	pr.Imax = 1 + next()%40
	pr.T0 = 50 + float64(next())
	comps := make([]chip.Component, n)
	for i := range comps {
		comps[i].ID = chip.CompID(i)
		w := 1 + next()%5
		h := w // square
		if v := next(); v%3 != 0 {
			h = 1 + v%5
		}
		comps[i].Kind.W, comps[i].Kind.H = w, h
	}
	var nets []Net
	if n >= 2 {
		nets = make([]Net, next()%(3*n+1))
		for k := range nets {
			a := next() % n
			b := (a + 1 + next()%(n-1)) % n
			var cp float64
			switch v := next(); {
			case v < 32: // zero priority
			case v < 64 && k > 0: // duplicate of the previous pair
				a, b = int(nets[k-1].A), int(nets[k-1].B)
				cp = float64(v) / 8
			case v < 192:
				cp = float64(v%8) * 0.25
			default:
				cp = float64(v) / 97
			}
			nets[k] = Net{A: chip.CompID(a), B: chip.CompID(b), CP: cp}
		}
	}
	var seed [8]byte
	copy(seed[:], data[min(at, len(data)):])
	pr.Seed = binary.LittleEndian.Uint64(seed[:])
	return comps, nets, pr
}

// FuzzAnnealMatchesReference runs the production chain through the same
// cooling schedule as referenceAnneal and requires the same best
// placement with the same bestE bits, then the same Anneal output after
// the quench. After every step the fold's total must equal Energy on the
// chain's placement, bit for bit.
func FuzzAnnealMatchesReference(f *testing.F) {
	f.Add([]byte{5, 1, 20, 40, 3, 4, 2, 2, 1, 5, 4, 0, 3, 9, 0, 1, 10, 2, 3, 40, 3, 1, 200, 1, 0, 0, 7})
	f.Add([]byte{8, 2, 30, 10, 2, 3, 2, 2, 3, 2, 1, 3, 4, 4, 2, 2, 5, 1, 16, 5, 6, 50, 1, 1, 7, 9, 0, 20, 3, 1, 250, 77})
	f.Fuzz(func(t *testing.T, data []byte) {
		comps, nets, pr := annealInstance(data)
		want, wantE, err := referenceAnneal(comps, nets, pr)
		if err != nil {
			t.Skip(err)
		}
		w, h := AutoPlane(comps, pr.Spacing)
		r := rng.New(pr.Seed)
		p, err := randomPlacement(comps, w, h, pr.Spacing, r)
		if err != nil {
			t.Fatal(err)
		}
		ix := BuildNetIndex(len(comps), nets)
		c := newChain(p, nets, r)
		for temp := pr.T0; temp > pr.Tmin; temp *= pr.Alpha {
			for i := 0; i < pr.Imax; i++ {
				c.step(temp, pr.Spacing, ix)
				if got, full := c.f.total(), Energy(c.f.p, nets); math.Float64bits(got) != math.Float64bits(full) {
					t.Fatalf("T=%g move %d: fold %v (%#x), Energy %v (%#x)",
						temp, i, got, math.Float64bits(got), full, math.Float64bits(full))
				}
			}
		}
		if math.Float64bits(c.bestE) != math.Float64bits(wantE) {
			t.Fatalf("bestE %v, reference %v", c.bestE, wantE)
		}
		for i := range want.Rects {
			if c.best.Rects[i] != want.Rects[i] {
				t.Fatalf("best component %d: %+v, reference %+v", i, c.best.Rects[i], want.Rects[i])
			}
		}
		got, err := Anneal(comps, nets, pr)
		if err != nil {
			t.Fatal(err)
		}
		Quench(want, nets, pr.Spacing)
		for i := range want.Rects {
			if got.Rects[i] != want.Rects[i] {
				t.Fatalf("Anneal component %d: %+v, reference %+v", i, got.Rects[i], want.Rects[i])
			}
		}
	})
}
