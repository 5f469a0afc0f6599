// Package place implements the component-placement stage of the paper's
// physical design flow (Section IV-B-1, Algorithm 2 lines 1-8).
//
// The routing plane is a grid of rectangular cells. Components occupy
// axis-aligned rectangles and must keep a spacing margin free around them
// so flow channels can pass between any two neighbours. Placement quality
// is the energy function of Eq. 3,
//
//	Energy(P) = Σ mdis(i,j) · cp(i,j),
//
// where mdis is the Manhattan distance between component centres and cp is
// the connection priority of Eq. 4, combining how concurrent and how
// wash-expensive the transportation tasks of each net are. The proposed
// placer is classic simulated annealing over translate/rotate/swap moves;
// the baseline placer is the construction-by-correction procedure the
// paper compares against.
package place

import (
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/unit"
)

// Params configures both placers. The defaults are the published
// experimental settings.
type Params struct {
	// Simulated-annealing schedule: initial temperature T0, termination
	// temperature Tmin, geometric cooling factor Alpha, and Imax moves
	// per temperature step.
	T0    float64
	Tmin  float64
	Alpha float64
	Imax  int
	// Beta and Gamma weight concurrency and wash time in the connection
	// priority of Eq. 4.
	Beta  float64
	Gamma float64
	// Seed drives the deterministic RNG.
	Seed uint64
	// PlaneW/PlaneH fix the grid size; zero means size automatically
	// from the component inventory.
	PlaneW int
	PlaneH int
	// Spacing is the minimum number of free cells kept between any two
	// components (and the plane border) for channel routing.
	Spacing int
}

// DefaultParams returns the parameter values used in Section V of the
// paper — α=0.9, β=0.6, γ=0.4, T0=10000, Imax=150, Tmin=1.0 — with a
// two-cell routing corridor between components so that adjacent
// components do not share boundary ring cells.
func DefaultParams() Params {
	return Params{
		T0:      10000,
		Tmin:    1.0,
		Alpha:   0.9,
		Imax:    150,
		Beta:    0.6,
		Gamma:   0.4,
		Seed:    1,
		Spacing: 2,
	}
}

// Rect is a component footprint instance on the grid (cells).
type Rect struct {
	X, Y int // top-left cell
	W, H int
}

// CenterX returns the x coordinate of the rectangle centre.
func (r Rect) CenterX() float64 { return float64(r.X) + float64(r.W)/2 }

// CenterY returns the y coordinate of the rectangle centre.
func (r Rect) CenterY() float64 { return float64(r.Y) + float64(r.H)/2 }

// expandedOverlaps reports whether a and b, with a margin of m cells
// around a, intersect.
func (r Rect) expandedOverlaps(b Rect, m int) bool {
	return r.X-m < b.X+b.W && b.X < r.X+r.W+m &&
		r.Y-m < b.Y+b.H && b.Y < r.Y+r.H+m
}

// Net is one placement net: the pair of components connected by one or
// more transportation tasks, with its connection priority cp(i,j).
type Net struct {
	A, B chip.CompID
	CP   float64
	// Tasks lists the schedule.Transport IDs realised on this net.
	Tasks []int
}

// touches reports whether component c is one of the net's endpoints.
func (n *Net) touches(c int) bool { return int(n.A) == c || int(n.B) == c }

// Placement assigns a rectangle to every component on a W×H grid.
type Placement struct {
	W, H  int
	Rects []Rect // indexed by chip.CompID
}

// Clone returns an independent copy.
func (p *Placement) Clone() *Placement {
	c := &Placement{W: p.W, H: p.H, Rects: make([]Rect, len(p.Rects))}
	copy(c.Rects, p.Rects)
	return c
}

// CopyFrom overwrites p with src, reusing p's rectangle slice when the
// capacity suffices. The annealers use it to keep a best-so-far snapshot
// without allocating a fresh Placement on every improvement.
func (p *Placement) CopyFrom(src *Placement) {
	p.W, p.H = src.W, src.H
	if cap(p.Rects) < len(src.Rects) {
		p.Rects = make([]Rect, len(src.Rects))
	}
	p.Rects = p.Rects[:len(src.Rects)]
	copy(p.Rects, src.Rects)
}

// Legal verifies bounds and pairwise spacing.
func (p *Placement) Legal(spacing int) error {
	for i, r := range p.Rects {
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("place: component %d has empty footprint", i)
		}
		if r.X < spacing || r.Y < spacing || r.X+r.W > p.W-spacing || r.Y+r.H > p.H-spacing {
			return fmt.Errorf("place: component %d at %+v outside %dx%d plane (spacing %d)",
				i, r, p.W, p.H, spacing)
		}
		for j := i + 1; j < len(p.Rects); j++ {
			if r.expandedOverlaps(p.Rects[j], spacing) {
				return fmt.Errorf("place: components %d and %d closer than spacing %d: %+v %+v",
					i, j, spacing, r, p.Rects[j])
			}
		}
	}
	return nil
}

// Dist returns the Manhattan distance between the centres of components a
// and b, in cells.
func (p *Placement) Dist(a, b chip.CompID) float64 {
	return float64(p.dist2(a, b)) * 0.5
}

// dist2 is twice the Manhattan distance between the centres of components
// a and b, in integer arithmetic. A centre is X + W/2, so twice the x gap
// is |2(Xa−Xb) + (Wa−Wb)|, and likewise in y. Every centre is a
// half-integer, so float64(dist2)*0.5 is exact, and it is the same float64
// that subtracting the CenterX/CenterY values gives: on grid-sized
// coordinates every one of those float operations is exact too.
func (p *Placement) dist2(a, b chip.CompID) int {
	ra, rb := p.Rects[a], p.Rects[b]
	return abs(2*(ra.X-rb.X)+ra.W-rb.W) + abs(2*(ra.Y-rb.Y)+ra.H-rb.H)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Energy evaluates Eq. 3 over the given nets.
func Energy(p *Placement, nets []Net) float64 {
	var e float64
	for k := range nets {
		e += netTerm(p, &nets[k])
	}
	return e
}

// BuildNets derives the routing nets N = {n_ij} from a scheduling result
// and computes each net's connection priority cp(i,j) per Eq. 4:
//
//	cp(i,j) = Σ_k (β·nt_k + γ·wt_k)
//
// where nt_k counts the transportation tasks performed concurrently with
// task k (anywhere on the chip) and wt_k is the wash time, in seconds, of
// the residue task k leaves in flow channels. Transports between a
// component and itself never occur (in-place consumption has no net).
func BuildNets(r *schedule.Result, beta, gamma float64) []Net {
	// Occupancy window of each transport, including channel-cache time.
	windows := make([][2]unit.Time, len(r.Transports))
	for i, tr := range r.Transports {
		start := tr.Depart
		if tr.FromChannel {
			start = tr.CacheStart
		}
		windows[i] = [2]unit.Time{start, tr.Arrive}
	}
	concurrent := func(k int) int {
		n := 0
		for i := range windows {
			if i == k {
				continue
			}
			if windows[i][0] < windows[k][1] && windows[k][0] < windows[i][1] {
				n++
			}
		}
		return n
	}
	type key struct{ a, b chip.CompID }
	byPair := make(map[key]*Net)
	var order []key
	for i, tr := range r.Transports {
		a, b := tr.From, tr.To
		if a == b {
			continue
		}
		if b < a {
			a, b = b, a
		}
		k := key{a, b}
		n := byPair[k]
		if n == nil {
			n = &Net{A: a, B: b}
			byPair[k] = n
			order = append(order, k)
		}
		n.CP += beta*float64(concurrent(i)) + gamma*tr.WashTime.Sec()
		n.Tasks = append(n.Tasks, tr.ID)
	}
	nets := make([]Net, 0, len(order))
	for _, k := range order {
		nets = append(nets, *byPair[k])
	}
	return nets
}

// Dilate scales component positions (not footprints) by f ≥ 1, widening
// every routing corridor while preserving the relative layout. The router
// uses it to recover from congestion: a dilated placement has the same
// Eq. 3 optimum structure but more channel capacity.
func Dilate(p *Placement, f float64) *Placement {
	if f <= 1 {
		return p.Clone()
	}
	q := &Placement{
		W:     int(math.Ceil(float64(p.W)*f)) + 1,
		H:     int(math.Ceil(float64(p.H)*f)) + 1,
		Rects: make([]Rect, len(p.Rects)),
	}
	for i, r := range p.Rects {
		q.Rects[i] = Rect{
			X: int(math.Round(float64(r.X) * f)),
			Y: int(math.Round(float64(r.Y) * f)),
			W: r.W,
			H: r.H,
		}
	}
	return q
}

// AutoPlane returns a square plane large enough to place the components
// with the given spacing and still leave routing room: roughly four times
// the packed component area.
func AutoPlane(comps []chip.Component, spacing int) (int, int) {
	area := 0
	maxSide := 0
	for _, c := range comps {
		w, h := c.Kind.W+2*spacing, c.Kind.H+2*spacing
		area += w * h
		if w > maxSide {
			maxSide = w
		}
		if h > maxSide {
			maxSide = h
		}
	}
	side := int(math.Ceil(math.Sqrt(float64(4 * area))))
	if side < maxSide+2*spacing {
		side = maxSide + 2*spacing
	}
	return side, side
}

// randomPlacement places every component at a uniformly random legal
// position (Algorithm 2 line 1). It scans deterministically when rejection
// sampling fails, and errors if the plane cannot hold the components.
func randomPlacement(comps []chip.Component, w, h, spacing int, r *rng.Source) (*Placement, error) {
	p := &Placement{W: w, H: h, Rects: make([]Rect, len(comps))}
	for i, c := range comps {
		placed := false
		fw, fh := c.Kind.W, c.Kind.H
		for try := 0; try < 200 && !placed; try++ {
			cand := Rect{W: fw, H: fh}
			if r.Intn(2) == 1 {
				cand.W, cand.H = cand.H, cand.W
			}
			maxX, maxY := w-spacing-cand.W, h-spacing-cand.H
			if maxX < spacing || maxY < spacing {
				continue
			}
			cand.X = spacing + r.Intn(maxX-spacing+1)
			cand.Y = spacing + r.Intn(maxY-spacing+1)
			if fitsAt(p, i, cand, spacing) {
				p.Rects[i] = cand
				placed = true
			}
		}
		if !placed {
			// Deterministic scan fallback.
			cand := Rect{W: fw, H: fh}
		scan:
			for y := spacing; y+cand.H <= h-spacing; y++ {
				for x := spacing; x+cand.W <= w-spacing; x++ {
					cand.X, cand.Y = x, y
					if fitsAt(p, i, cand, spacing) {
						p.Rects[i] = cand
						placed = true
						break scan
					}
				}
			}
		}
		if !placed {
			return nil, fmt.Errorf("place: plane %dx%d too small for %d components", w, h, len(comps))
		}
	}
	return p, nil
}

// fitsAt reports whether rect cand for component i is legal against the
// plane bounds and all components other than i. cand, widened by the
// spacing, overlaps r exactly when all four strict inequalities of
// expandedOverlaps hold, that is when all four differences below are
// negative — when their AND has the sign bit set. A cleared rectangle
// (Rect{}, a swap's placeholder or a component randomPlacement has not
// placed yet) never overlaps: the bounds check keeps cand.X-spacing >= 0.
func fitsAt(p *Placement, i int, cand Rect, spacing int) bool {
	if cand.X < spacing || cand.Y < spacing ||
		cand.X+cand.W > p.W-spacing || cand.Y+cand.H > p.H-spacing {
		return false
	}
	x0, x1 := cand.X-spacing, cand.X+cand.W+spacing
	y0, y1 := cand.Y-spacing, cand.Y+cand.H+spacing
	rs := p.Rects
	for j := range rs {
		r := &rs[j]
		if (x0-r.X-r.W)&(r.X-x1)&(y0-r.Y-r.H)&(r.Y-y1) < 0 && j != i {
			return false
		}
	}
	return true
}
