package place

import "math"

// relocScan is the single-component relocation kernel shared by the
// greedy quench and the baseline's correction pass. Both scan every
// in-bounds position of one component (in one or both rotations) for
// the lowest Eq. 3 energy among legal positions; the kernel makes one
// candidate cost O(1) instead of O(n) for legality plus O(deg) for
// energy:
//
//   - Legality. A candidate is legal iff its spacing-expanded window
//     [X−s, X+W+s) × [Y−s, Y+H+s) covers no cell of another component —
//     exactly what expandedOverlaps tests pairwise. sat is a summed-area
//     table of every component's cells, so the window count is four
//     lookups; the component's own cells are removed by subtracting the
//     window's overlap with its own rectangle. The table is rebuilt only
//     after a component has moved, so a descent pass that moves nothing
//     reuses it for every component.
//   - Energy. Over component centres Eq. 3 is Σ cp·(|Δx|+|Δy|), which
//     splits into Fx(x)+Fy(y) once the other endpoints are fixed. rows
//     fills those two 1-D arrays from the incident nets, so a candidate's
//     energy is one addition.
//
// Fx[x]+Fy[y] equals NetIndex.CompEnergyAt mathematically but not
// bitwise (the terms are summed in a different order); see relocate for
// why that cannot change a decision.
type relocScan struct {
	w, h  int
	sat   []int32 // (w+1)×(h+1) summed-area table, row stride w+1
	stale bool    // sat no longer matches the placement
	fx    []float64
	fy    []float64
	minFx float64 // min of fx over the scanned x range
}

func newRelocScan(w, h int) *relocScan {
	return &relocScan{
		w: w, h: h,
		sat:   make([]int32, (w+1)*(h+1)),
		stale: true,
		fx:    make([]float64, w),
		fy:    make([]float64, h),
	}
}

// clip returns r's cell range clipped to the plane.
func (s *relocScan) clip(r Rect) (x0, y0, x1, y1 int) {
	return max(r.X, 0), max(r.Y, 0), min(r.X+r.W, s.w), min(r.Y+r.H, s.h)
}

// occupy rebuilds the summed-area table from p's rectangles: sat[(y+1)
// (w+1)+(x+1)] counts the occupied cells in [0,x]×[0,y]. Counts, not
// flags, so overlapping rectangles stay exact.
func (s *relocScan) occupy(p *Placement) {
	clear(s.sat)
	st := s.w + 1
	for _, r := range p.Rects {
		x0, y0, x1, y1 := s.clip(r)
		for y := y0; y < y1; y++ {
			row := s.sat[(y+1)*st:]
			for x := x0; x < x1; x++ {
				row[x+1]++
			}
		}
	}
	for y := 1; y <= s.h; y++ {
		row, up := s.sat[y*st:(y+1)*st], s.sat[(y-1)*st:y*st]
		for x := 1; x <= s.w; x++ {
			row[x] += row[x-1] + up[x] - up[x-1]
		}
	}
	s.stale = false
}

// othersFree reports whether the window [x0,x1)×[y0,y1), which must lie
// inside the plane, holds no cell of a component other than own (the
// rectangle of the component being relocated, as occupy saw it).
func (s *relocScan) othersFree(x0, y0, x1, y1 int, own Rect) bool {
	st := s.w + 1
	n := s.sat[y1*st+x1] - s.sat[y0*st+x1] - s.sat[y1*st+x0] + s.sat[y0*st+x0]
	ox0, oy0, ox1, oy1 := s.clip(own)
	if ow, oh := min(x1, ox1)-max(x0, ox0), min(y1, oy1)-max(y0, oy0); ow > 0 && oh > 0 {
		n -= int32(ow * oh)
	}
	return n == 0
}

// rows fills fx[x] (x in [x0,x1]) and fy[y] (y in [y0,y1]) with the
// separable Eq. 3 cost of component i with a fw×fh footprint at column x
// and row y: Σ cp·|x+fw/2−ox| and Σ cp·|y+fh/2−oy| over the nets
// incident to i, where (ox,oy) is the other endpoint's centre. A net
// joining i to itself measures against i's current rectangle, as
// CompEnergyAt does.
func (s *relocScan) rows(p *Placement, ix *NetIndex, i, fw, fh, x0, y0, x1, y1 int) {
	fx, fy := s.fx[x0:x1+1], s.fy[y0:y1+1]
	clear(fx)
	clear(fy)
	hw, hh := float64(fw)/2, float64(fh)/2
	for _, k := range ix.byComp[i] {
		n := &ix.nets[k]
		o := n.A
		if int(o) == i {
			o = n.B
		}
		ro := p.Rects[o]
		ox, oy := ro.CenterX()-hw-float64(x0), ro.CenterY()-hh-float64(y0)
		for x := range fx {
			fx[x] += math.Abs(float64(x)-ox) * n.CP
		}
		for y := range fy {
			fy[y] += math.Abs(float64(y)-oy) * n.CP
		}
	}
	s.minFx = math.Inf(1)
	for _, v := range fx {
		s.minFx = min(s.minFx, v)
	}
}

// tieEps separates genuine energy differences (multiples of half a cell
// times a connection priority) from summation-order roundoff (~1e-11 at
// these energy magnitudes). See AnnealContext and relocate.
const tieEps = 1e-6

// relocate returns the best legal rectangle for component i, scanning
// rows then columns of the plane in rotation 0 and then (when rotate is
// set) rotation 1, and keeping a candidate only if it is strictly better
// than the best so far. p is not modified.
//
// With nets set (the quench), candidates within tieEps of the incumbent
// are decided by fullLess on the full Eq. 3 sums, bit for bit; outside
// that band a genuine difference (at least tieEps) dwarfs the ~1e-12
// disagreement between Fx+Fy and any other summation order, so every
// decision matches a full-recompute scan and the descent is
// byte-identical to it (referenceQuench in the tests). With nets nil
// (the baseline's unit-priority nets) every sum is an exact multiple of
// 0.5, so a tie-band difference is exactly zero and is rejected: strict
// "<" with no fallback needed.
//
// Two shortcuts skip only candidates the scan would reject anyway. A
// row whose Fy plus the row minimum of Fx is already tieEps above the
// incumbent cannot hold a winner: floating-point addition is monotone,
// so no candidate in it passes the first test. And the component's
// current rectangle never beats the incumbent, which started there.
func (s *relocScan) relocate(p *Placement, ix *NetIndex, nets []Net, i, spacing int, rotate bool) Rect {
	old := p.Rects[i]
	bestRect, bestE := old, ix.CompEnergy(p, i)
	for rot := 0; rot < 2; rot++ {
		cand := old
		if rot == 1 {
			if !rotate || old.W == old.H {
				break // a square's rotation repeats every candidate
			}
			cand.W, cand.H = cand.H, cand.W
		}
		x1, y1 := p.W-spacing-cand.W, p.H-spacing-cand.H
		if x1 < spacing || y1 < spacing {
			continue
		}
		s.rows(p, ix, i, cand.W, cand.H, spacing, spacing, x1, y1)
		fx := s.fx[spacing : x1+1]
		for yy := spacing; yy <= y1; yy++ {
			fy := s.fy[yy]
			if s.minFx+fy-bestE >= tieEps {
				continue
			}
			for dx, fxx := range fx {
				e := fxx + fy
				d := e - bestE
				if d >= tieEps {
					continue // certainly worse
				}
				xx := spacing + dx
				if rot == 0 && xx == old.X && yy == old.Y {
					continue
				}
				if s.stale {
					s.occupy(p)
				}
				if !s.othersFree(xx-spacing, yy-spacing, xx+cand.W+spacing, yy+cand.H+spacing, old) {
					continue
				}
				cand.X, cand.Y = xx, yy
				if d > -tieEps && (nets == nil || !fullLess(p, nets, i, cand, bestRect)) {
					continue // tie: the full sums say not better
				}
				bestE = e
				bestRect = cand
			}
		}
	}
	return bestRect
}

// commit moves component i to r, the rectangle relocate chose, and
// reports whether it moved; a move marks the occupancy table stale.
func (s *relocScan) commit(p *Placement, i int, r Rect) bool {
	if r == p.Rects[i] {
		return false
	}
	p.Rects[i] = r
	s.stale = true
	return true
}
