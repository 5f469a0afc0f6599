package place

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestNetTermMatchesCentreDistance holds the integer doubled-centre
// distance to the float centre arithmetic it replaced: netTerm must be
// bitwise float64((|ΔcX|+|ΔcY|)·CP) with the centres from Rect.CenterX
// and CenterY, and Dist bitwise |ΔcX|+|ΔcY|. Footprints mix odd and even
// sides (half-integer and integer centres), every rect also appears
// rotated, and the priorities include 0, −0, subnormals, values near the
// largest float64 (whose products overflow to +Inf) and a negative one.
func TestNetTermMatchesCentreDistance(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	cps := []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2e-308, 1e-300, 0.1, 0.6, 1, 7.3,
		1e10, 1e300, math.MaxFloat64, -2.5,
	}
	r := rng.New(11)
	for trial := 0; trial < 2000; trial++ {
		var rects [2]Rect
		for k := range rects {
			w, h := 1+r.Intn(7), 1+r.Intn(7)
			if r.Intn(2) == 1 {
				w, h = h, w // rotated
			}
			rects[k] = Rect{X: r.Intn(200), Y: r.Intn(200), W: w, H: h}
		}
		p := &Placement{W: 210, H: 210, Rects: rects[:]}
		a, b := rects[0], rects[1]
		dist := math.Abs(a.CenterX()-b.CenterX()) + math.Abs(a.CenterY()-b.CenterY())
		if got := p.Dist(0, 1); !same(got, dist) {
			t.Fatalf("%+v %+v: Dist %v, centre distance %v", a, b, got, dist)
		}
		for _, cp := range cps {
			n := Net{A: 0, B: 1, CP: cp}
			want := float64(dist * cp)
			if got := netTerm(p, &n); !same(got, want) {
				t.Fatalf("%+v %+v CP %g: netTerm %v (%#x), centre term %v (%#x)",
					a, b, cp, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// metropolisCase turns fuzz inputs into a draw u = k·2⁻⁵³ the way
// rng.Source.Float64 makes one (so 0 ≤ u ≤ 1−2⁻⁵³) and an exponent y in
// [−800, 0]; NaN is kept.
func metropolisCase(k uint64, y float64) (float64, float64) {
	u := float64(k&(1<<53-1)) / (1 << 53)
	y = -math.Abs(y)
	if y < -800 {
		y = math.Mod(y, 800)
	}
	return u, y
}

// FuzzMetropolisMatchesExp requires metropolis(u, y) == (u < math.Exp(y))
// for every draw the RNG can make and every uphill exponent. The seeds
// cover u = 0 and u = 1−2⁻⁵³; y = −0, subnormal, tiny, around the cubic
// lower bound's root (a ≈ 1.596), at the 700 cut-off and past exp's
// underflow; and, for a ladder of exponents, the draws just either side of
// exp(y) itself and of each bracket's edge, where the bounds must hand
// over to math.Exp.
func FuzzMetropolisMatchesExp(f *testing.F) {
	for _, y := range []float64{
		math.Copysign(0, -1), -5e-324, -1e-310, -1e-300, -1e-17, -1e-9, -1e-3,
		-0.1, -0.5, -1, -1.5, -1.5961, -1.6, -2, -3, -5, -10, -30, -100,
		-699.9999999, -700, -700.0000001, -745.13, -800, math.NaN(),
	} {
		a := -y
		upper := 1 / (1 + a*(1+a*(0.5+a*(1.0/6))))
		lower := 1 - a*(1-a*(0.5-a*(1.0/6)))
		for _, edge := range []float64{
			math.Exp(y),
			upper * (1 + metropolisMargin),
			lower * (1 - metropolisMargin),
		} {
			if !(edge > 0 && edge < 1) {
				continue
			}
			k := uint64(edge * (1 << 53))
			for _, d := range []uint64{0, 1, 2} {
				f.Add(k+d, y)
				f.Add(k-d, y)
			}
		}
		f.Add(uint64(0), y)
		f.Add(uint64(1), y)
		f.Add(uint64(1<<53-1), y)
	}
	f.Fuzz(func(t *testing.T, k uint64, y float64) {
		u, y := metropolisCase(k, y)
		if got, want := metropolis(u, y), u < math.Exp(y); got != want {
			t.Fatalf("u = %v (%#x), y = %v (%#x): metropolis %v, u < math.Exp(y) %v",
				u, math.Float64bits(u), y, math.Float64bits(y), got, want)
		}
	})
}
