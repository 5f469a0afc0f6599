package route

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/chip"
	"repro/internal/place"
)

// refHField is the heuristic field as a multi-source BFS from the
// component's ring over the unobstructed grid (on a 4-connected grid
// without obstacles, BFS distance is Manhattan distance to the nearest
// source), in a freshly allocated slice.
func refHField(g *Grid, comp chip.CompID) []int32 {
	f := make([]int32, g.W*g.H)
	for i := range f {
		f[i] = -1
	}
	var q []int32
	for _, c := range g.rings[comp] {
		i := int32(g.idx(c.X, c.Y))
		f[i] = 0
		q = append(q, i)
	}
	w := int32(g.W)
	for head := 0; head < len(q); head++ {
		i := q[head]
		d := f[i] + 1
		x := i % w
		if x > 0 && f[i-1] < 0 {
			f[i-1] = d
			q = append(q, i-1)
		}
		if x < w-1 && f[i+1] < 0 {
			f[i+1] = d
			q = append(q, i+1)
		}
		if j := i - w; j >= 0 && f[j] < 0 {
			f[j] = d
			q = append(q, j)
		}
		if j := i + w; j < int32(len(f)) && f[j] < 0 {
			f[j] = d
			q = append(q, j)
		}
	}
	return f
}

// TestHFieldMatchesBFS holds the two-pass distance transform to the BFS
// field on every cell, for every component of annealed Synthetic2
// placements at spacing 0–3 and several seeds. At spacing 0 and 1
// neighbours and the plane edge cut rings short, so the sources are
// irregular. Each grid is released and the next one drawn from the pool,
// so later cases also run on a recycled field buffer. The last part
// routes the spacing 2 and 3 placements with the wave router (Workers 4)
// and sequentially: the wave router caches fields before its fan-out,
// and the two must agree path for path (run under -race to check the
// fan-out only reads them).
func TestHFieldMatchesBFS(t *testing.T) {
	for spacing := 0; spacing <= 3; spacing++ {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("spacing%d/seed%d", spacing, seed), func(t *testing.T) {
				sr, comps, _ := pipeline(t, "Synthetic2", false)
				pp := place.DefaultParams()
				pp.Imax, pp.Spacing, pp.Seed = 4, spacing, seed
				pl, err := place.Anneal(comps, place.BuildNets(sr, 0.6, 0.4), pp)
				if err != nil {
					t.Fatal(err)
				}
				g, err := NewGrid(comps, pl, DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				defer g.release()
				for c := range comps {
					comp := chip.CompID(c)
					got, want := g.hfield(comp), refHField(g, comp)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("component %d, cell %v: transform %d, BFS %d",
							c, g.cellOf(int32(i)), got[i], want[i])
					}
					if again := g.hfield(comp); &again[0] != &got[0] {
						t.Fatalf("component %d: field not cached", c)
					}
				}
				if spacing < 2 {
					return
				}
				seq, errSeq := Route(sr, comps, pl, DefaultParams())
				pr := DefaultParams()
				pr.Workers = 4
				par, errPar := Route(sr, comps, pl, pr)
				if (errSeq == nil) != (errPar == nil) {
					t.Fatalf("sequential error %v, wave error %v", errSeq, errPar)
				}
				if errSeq != nil {
					t.Logf("unroutable: %v", errSeq)
					return
				}
				for k := range seq.Routes {
					if !slices.Equal(seq.Routes[k].Path, par.Routes[k].Path) {
						t.Fatalf("task %d: wave path differs from sequential", seq.Routes[k].Task.ID)
					}
				}
			})
		}
	}
}

func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
