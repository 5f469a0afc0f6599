package place

import (
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
)

// randomNets builds a random net list over n components with positive
// priorities, including duplicate pairs (several transports can share a
// net pair before BuildNets merges them, and the index must not care).
func randomNets(n int, count int, r *rng.Source) []Net {
	nets := make([]Net, 0, count)
	for k := 0; k < count; k++ {
		a := chip.CompID(r.Intn(n))
		b := chip.CompID(r.Intn(n - 1))
		if b >= a {
			b++
		}
		nets = append(nets, Net{A: a, B: b, CP: 0.1 + 10*r.Float64()})
	}
	return nets
}

// TestIncrementalDeltaMatchesFull is the fold's bit-exactness invariant,
// over 1k random moves per benchmark on random placements, half kept and
// half undone. Bit for bit: the staged incident-net delta equals the
// reference delta (CompEnergy, or refPairEnergy for swaps, after minus
// before); the full-sum delta the fold resumes for near ties, pending −
// total, equals Energy(after) − Energy(before); and after the commit or
// reject the fold's total equals Energy. The incident-net delta also
// agrees with the full-sum delta to 1e-9: it misses no net.
func TestIncrementalDeltaMatchesFull(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	incident := func(ix *NetIndex, p *Placement, mv move) float64 {
		if mv.j < 0 {
			return ix.CompEnergy(p, mv.i)
		}
		return refPairEnergy(ix, p, mv.i, mv.j)
	}
	for _, name := range []string{"IVD", "CPA", "Synthetic2"} {
		_, comps := scheduled(t, name)
		r := rng.New(42)
		nets := randomNets(len(comps), 3*len(comps), r)
		ix := BuildNetIndex(len(comps), nets)
		w, h := AutoPlane(comps, 2)
		p, err := randomPlacement(comps, w, h, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		f := newEnergyFold(p, nets)
		for checked := 0; checked < 1000; {
			prev := p.Clone()
			var mv move
			if !transform(p, 2, r, &mv) {
				continue
			}
			before, after := Energy(prev, nets), Energy(p, nets)
			ref := incident(ix, p, mv) - incident(ix, prev, mv)
			delta := f.stage(ix, mv.i, mv.j)
			if !same(delta, ref) {
				t.Fatalf("%s move %d: staged delta %v, reference incident delta %v", name, checked, delta, ref)
			}
			if math.Abs(delta-(after-before)) > 1e-9 {
				t.Fatalf("%s move %d: incremental delta %v, full delta %v", name, checked, delta, after-before)
			}
			if full := f.pending() - f.total(); !same(full, after-before) {
				t.Fatalf("%s move %d: fold full delta %v, Energy delta %v", name, checked, full, after-before)
			}
			if checked%2 == 1 {
				f.reject(ix)
				mv.undo(p)
			} else {
				f.commit()
			}
			if got := f.total(); !same(got, Energy(p, nets)) {
				t.Fatalf("%s move %d: fold total %v, Energy %v", name, checked, got, Energy(p, nets))
			}
			checked++
		}
	}
}

// TestCompEnergyAtMatchesMutation checks that scoring a candidate
// rectangle without mutating the placement agrees with mutating it and
// evaluating the incident nets.
func TestCompEnergyAtMatchesMutation(t *testing.T) {
	_, comps := scheduled(t, "CPA")
	r := rng.New(7)
	nets := randomNets(len(comps), 4*len(comps), r)
	ix := BuildNetIndex(len(comps), nets)
	w, h := AutoPlane(comps, 2)
	p, err := randomPlacement(comps, w, h, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		i := r.Intn(len(comps))
		old := p.Rects[i]
		cand := old
		cand.X = r.Intn(max(1, w-cand.W))
		cand.Y = r.Intn(max(1, h-cand.H))
		direct := ix.CompEnergyAt(p, i, cand)
		p.Rects[i] = cand
		mutated := ix.CompEnergy(p, i)
		p.Rects[i] = old
		if math.Abs(direct-mutated) > 1e-12 {
			t.Fatalf("move %d: CompEnergyAt %v != mutate-and-score %v", k, direct, mutated)
		}
	}
}

// TestPairEnergyCountsSharedNetsOnce pins the swap-move invariant: a
// swap restages every net incident to the pair once — nets joining the
// pair included — whichever way round the pair is given, and a reject,
// which walks the same nets again, puts back exactly the terms the stage
// replaced.
func TestPairEnergyCountsSharedNetsOnce(t *testing.T) {
	nets := []Net{
		{A: 0, B: 1, CP: 2},
		{A: 0, B: 2, CP: 1},
		{A: 1, B: 2, CP: 1},
		{A: 0, B: 1, CP: 3}, // duplicate pair, distinct net
		{A: 2, B: 3, CP: 5}, // untouched by the swap
	}
	ix := BuildNetIndex(4, nets)
	p := &Placement{W: 20, H: 20, Rects: []Rect{
		{X: 0, Y: 0, W: 2, H: 2},
		{X: 4, Y: 0, W: 2, H: 4},
		{X: 0, Y: 4, W: 2, H: 2},
		{X: 8, Y: 8, W: 2, H: 2},
	}}
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		q := p.Clone()
		f := newEnergyFold(q, nets)
		before := Energy(q, nets)
		q.Rects[0], q.Rects[1] = Rect{X: 4, Y: 0, W: 2, H: 2}, Rect{X: 0, Y: 0, W: 2, H: 4}
		delta := f.stage(ix, pair[0], pair[1])
		if len(f.saved) != 4 {
			t.Fatalf("pair %v: staged %d nets, want the 4 touching it once each", pair, len(f.saved))
		}
		if want := Energy(q, nets) - before; delta != want {
			t.Fatalf("pair %v: delta %v, want %v", pair, delta, want)
		}
		f.reject(ix)
		for k := range nets {
			if got, want := f.term[k], netTerm(p, &nets[k]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %v: net %d term %v after reject, want %v", pair, k, got, want)
			}
		}
	}
}
