package place

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/chip"
	"repro/internal/rng"
)

// scanFixture places up to a dozen random components (sides 1–5, either
// rotation) on a plane sized for them, aiming about half of them at the
// plane border so the spacing margin is exercised at the edges.
func scanFixture(r *rng.Source, spacing int) *Placement {
	n := 4 + r.Intn(9)
	comps := make([]chip.Component, n)
	for i := range comps {
		comps[i].Kind.W, comps[i].Kind.H = 1+r.Intn(5), 1+r.Intn(5)
	}
	w, h := AutoPlane(comps, spacing)
	p := &Placement{W: w, H: h}
	edge := func(lo, hi int) int {
		switch r.Intn(4) {
		case 0:
			return lo
		case 1:
			return hi
		default:
			return lo + r.Intn(hi-lo+1)
		}
	}
	for _, c := range comps {
		cand := Rect{W: c.Kind.W, H: c.Kind.H}
		if r.Intn(2) == 1 {
			cand.W, cand.H = cand.H, cand.W
		}
		for try := 0; try < 50; try++ {
			cand.X = edge(spacing, w-spacing-cand.W)
			cand.Y = edge(spacing, h-spacing-cand.H)
			if fitsAt(p, -1, cand, spacing) {
				p.Rects = append(p.Rects, cand)
				break
			}
		}
	}
	return p
}

// forEachCandidate calls fn for every in-bounds position of component i
// in both rotations.
func forEachCandidate(p *Placement, i, spacing int, fn func(cand Rect)) {
	for rot := 0; rot < 2; rot++ {
		cand := p.Rects[i]
		if rot == 1 {
			cand.W, cand.H = cand.H, cand.W
		}
		for y := spacing; y+cand.H <= p.H-spacing; y++ {
			for x := spacing; x+cand.W <= p.W-spacing; x++ {
				cand.X, cand.Y = x, y
				fn(cand)
			}
		}
	}
}

// TestScanLegalityMatchesFitsAt checks the summed-area verdict against
// the pairwise spacing test for every in-bounds candidate of every
// component, on random placements with spacing 1–3.
func TestScanLegalityMatchesFitsAt(t *testing.T) {
	r := rng.New(21)
	border := 0
	for trial := 0; trial < 60; trial++ {
		spacing := 1 + trial%3
		p := scanFixture(r, spacing)
		s := newRelocScan(p.W, p.H)
		s.occupy(p)
		for i, own := range p.Rects {
			if own.X == spacing || own.Y == spacing ||
				own.X+own.W == p.W-spacing || own.Y+own.H == p.H-spacing {
				border++
			}
			forEachCandidate(p, i, spacing, func(c Rect) {
				got := s.othersFree(c.X-spacing, c.Y-spacing, c.X+c.W+spacing, c.Y+c.H+spacing, own)
				if want := fitsAt(p, i, c, spacing); got != want {
					t.Fatalf("trial %d comp %d cand %+v spacing %d: table says free=%v, fitsAt %v",
						trial, i, c, spacing, got, want)
				}
			})
		}
	}
	if border == 0 {
		t.Fatal("no component touched the border margin; the fixture lost its edge cases")
	}
}

// TestScanRowsMatchCompEnergyAt checks that the separable rows reproduce
// the incident-net energy of every in-bounds candidate within 1e-9.
func TestScanRowsMatchCompEnergyAt(t *testing.T) {
	r := rng.New(22)
	for trial := 0; trial < 60; trial++ {
		spacing := 1 + trial%3
		p := scanFixture(r, spacing)
		if len(p.Rects) < 2 {
			continue
		}
		nets := randomNets(len(p.Rects), 3*len(p.Rects), r)
		ix := BuildNetIndex(len(p.Rects), nets)
		s := newRelocScan(p.W, p.H)
		for i := range p.Rects {
			var built Rect
			forEachCandidate(p, i, spacing, func(c Rect) {
				if c.W != built.W || c.H != built.H { // rows depend on the footprint only
					s.rows(p, ix, i, c.W, c.H, spacing, spacing, p.W-spacing-c.W, p.H-spacing-c.H)
					built = c
				}
				got, want := s.fx[c.X]+s.fy[c.Y], ix.CompEnergyAt(p, i, c)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("trial %d comp %d cand %+v: Fx+Fy = %v, CompEnergyAt = %v", trial, i, c, got, want)
				}
			})
		}
	}
}

// TestQuenchMatchesReferenceQuench compares Quench against the
// full-Energy reimplementation of the seed algorithm on every Table I
// assay, three initial placements each, at spacing 1 and 2. Random net
// priorities exercise general descents; the assay's own Eq. 4 priorities
// repeat exactly, so they exercise the full-sum tie fallback.
func TestQuenchMatchesReferenceQuench(t *testing.T) {
	for _, bm := range benchdata.All() {
		sched, comps := scheduled(t, bm.Name)
		for _, spacing := range []int{1, 2} {
			for seed := uint64(13); seed < 16; seed++ {
				t.Run(fmt.Sprintf("%s/s%d/seed%d", bm.Name, spacing, seed), func(t *testing.T) {
					r := rng.New(seed)
					nets := randomNets(len(comps), 3*len(comps), r)
					if seed == 15 {
						nets = BuildNets(sched, 0.6, 0.4)
					}
					w, h := AutoPlane(comps, spacing)
					p, err := randomPlacement(comps, w, h, spacing, r)
					if err != nil {
						t.Fatal(err)
					}
					q := p.Clone()
					Quench(p, nets, spacing)
					referenceQuench(q, nets, spacing)
					for i := range p.Rects {
						if p.Rects[i] != q.Rects[i] {
							t.Fatalf("component %d: Quench %+v, reference %+v", i, p.Rects[i], q.Rects[i])
						}
					}
				})
			}
		}
	}
}

// referenceQuench is the seed implementation of Quench: full Energy
// recomputation per candidate. Kept in the tests as the executable
// specification of the scan kernel.
func referenceQuench(p *Placement, nets []Net, spacing int) {
	for improved := true; improved; {
		improved = false
		for i := range p.Rects {
			old := p.Rects[i]
			bestRect, bestE := old, Energy(p, nets)
			for rot := 0; rot < 2; rot++ {
				cand := old
				if rot == 1 {
					cand.W, cand.H = cand.H, cand.W
				}
				for yy := spacing; yy+cand.H <= p.H-spacing; yy++ {
					for xx := spacing; xx+cand.W <= p.W-spacing; xx++ {
						cand.X, cand.Y = xx, yy
						if !fitsAt(p, i, cand, spacing) {
							continue
						}
						p.Rects[i] = cand
						if e := Energy(p, nets); e < bestE {
							bestE = e
							bestRect = cand
						}
						p.Rects[i] = old
					}
				}
			}
			if bestRect != old {
				p.Rects[i] = bestRect
				improved = true
			}
		}
	}
}

// TestConstructMatchesReference pins the baseline's correction pass,
// now routed through the scan kernel, to the seed implementation on
// every Table I assay at spacing 1 and 2.
func TestConstructMatchesReference(t *testing.T) {
	for _, bm := range benchdata.All() {
		sched, comps := scheduled(t, bm.Name)
		nets := BuildNets(sched, 0.6, 0.4)
		for _, spacing := range []int{1, 2} {
			pr := DefaultParams()
			pr.Spacing = spacing
			got, err := Construct(comps, nets, pr)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceConstruct(comps, nets, pr)
			for i := range got.Rects {
				if got.Rects[i] != want.Rects[i] {
					t.Fatalf("%s spacing %d component %d: Construct %+v, reference %+v",
						bm.Name, spacing, i, got.Rects[i], want.Rects[i])
				}
			}
		}
	}
}

// referenceConstruct is the seed implementation of Construct: row-major
// packing in ID order, then up to three correction passes that score
// every legal position (one rotation) by the full Eq. 3 sum over
// unit-priority nets and keep strict improvements.
func referenceConstruct(comps []chip.Component, nets []Net, pr Params) *Placement {
	w, h := AutoPlane(comps, pr.Spacing)
	p := &Placement{W: w, H: h, Rects: make([]Rect, len(comps))}
	x, y, rowH := pr.Spacing, pr.Spacing, 0
	for i, c := range comps {
		if x+c.Kind.W > w-pr.Spacing {
			x, y, rowH = pr.Spacing, y+rowH+pr.Spacing, 0
		}
		p.Rects[i] = Rect{X: x, Y: y, W: c.Kind.W, H: c.Kind.H}
		x += c.Kind.W + pr.Spacing
		rowH = max(rowH, c.Kind.H)
	}
	flat := make([]Net, len(nets))
	for i, n := range nets {
		flat[i] = Net{A: n.A, B: n.B, CP: 1}
	}
	for pass := 0; pass < 3; pass++ {
		improved := false
		for i := range p.Rects {
			old := p.Rects[i]
			bestRect, bestE := old, Energy(p, flat)
			cand := old
			for yy := pr.Spacing; yy+cand.H <= h-pr.Spacing; yy++ {
				for xx := pr.Spacing; xx+cand.W <= w-pr.Spacing; xx++ {
					cand.X, cand.Y = xx, yy
					if !fitsAt(p, i, cand, pr.Spacing) {
						continue
					}
					p.Rects[i] = cand
					if e := Energy(p, flat); e < bestE {
						bestE, bestRect = e, cand
					}
					p.Rects[i] = old
				}
			}
			if bestRect != old {
				p.Rects[i] = bestRect
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return p
}

// FuzzQuenchMatchesReference decodes bytes into components, nets, a
// spacing and a random legal placement, then requires Quench to take
// exactly the reference descent and to end legal. Priorities come from a
// small lattice most of the time, so exact ties (the fullLess fallback)
// are common.
func FuzzQuenchMatchesReference(f *testing.F) {
	f.Add([]byte{5, 1, 3, 2, 1, 4, 4, 2, 9, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{8, 2, 2, 2, 2, 2, 3, 1, 1, 3, 12, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func() int {
			if at >= len(data) {
				return 0
			}
			at++
			return int(data[at-1])
		}
		n := 2 + next()%7
		spacing := 1 + next()%3
		comps := make([]chip.Component, n)
		for i := range comps {
			comps[i].Kind.W, comps[i].Kind.H = 1+next()%4, 1+next()%4
		}
		nets := make([]Net, next()%(2*n+1))
		for k := range nets {
			a := next() % n
			b := (a + 1 + next()%(n-1)) % n
			cp := float64(1+next()%8) * 0.25
			if v := next(); v >= 192 {
				cp += float64(v) / 97
			}
			nets[k] = Net{A: chip.CompID(a), B: chip.CompID(b), CP: cp}
		}
		var seed [8]byte
		copy(seed[:], data[at:])
		w, h := AutoPlane(comps, spacing)
		p, err := randomPlacement(comps, w, h, spacing, rng.New(binary.LittleEndian.Uint64(seed[:])))
		if err != nil {
			t.Skip(err)
		}
		q := p.Clone()
		Quench(p, nets, spacing)
		referenceQuench(q, nets, spacing)
		for i := range p.Rects {
			if p.Rects[i] != q.Rects[i] {
				t.Fatalf("component %d: Quench %+v, reference %+v", i, p.Rects[i], q.Rects[i])
			}
		}
		if err := p.Legal(spacing); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAnnealAllocBudget pins the allocations of one default-parameter
// anneal of Synthetic1, quench included. While moves returned undo
// closures, every feasible SA move allocated one: ~10,500 allocations
// per anneal. With moves as plain values the count is set-up only — the
// RNG, the initial and best placements, the net index, the energy fold
// with its staging buffers and the scan kernel's tables — 21 when this
// test was written. The budget keeps ~3x headroom: it exists to catch a
// return to per-move or per-candidate allocation, not to freeze the
// exact count across Go releases. The count must also not depend on the
// number of moves: an anneal at Imax 60 and one at Imax 150 allocate
// exactly as often.
func TestAnnealAllocBudget(t *testing.T) {
	sched, comps := scheduled(t, "Synthetic1")
	nets := BuildNets(sched, 0.6, 0.4)
	allocs := func(imax int) float64 {
		pr := DefaultParams()
		pr.Imax = imax
		return testing.AllocsPerRun(5, func() {
			if _, err := Anneal(comps, nets, pr); err != nil {
				t.Fatal(err)
			}
		})
	}
	avg, short := allocs(150), allocs(60)
	const budget = 64
	if avg > budget {
		t.Fatalf("anneal averaged %.0f allocs, budget %d", avg, budget)
	}
	if short != avg {
		t.Fatalf("anneal allocs depend on the move count: %.0f at Imax 60, %.0f at Imax 150", short, avg)
	}
	t.Logf("anneal of Synthetic1: %.0f allocs/op (budget %d)", avg, budget)
}
