package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestHeadroomRule pins the recount headroom: the floor below k = 128,
// k/8 from there on, and the fixedSlack pin at every level.
func TestHeadroomRule(t *testing.T) {
	var s partitionSolver
	for _, c := range []struct{ k, want int }{
		{0, 16}, {1, 16}, {100, 16}, {127, 16}, {128, 16}, {135, 16},
		{136, 17}, {200, 25}, {1000, 125},
	} {
		if got := s.headroom(c.k); got != c.want {
			t.Errorf("headroom(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	s.pin = 3
	for _, k := range []int{0, 127, 1000} {
		if got := s.headroom(k); got != 3 {
			t.Errorf("pinned headroom(%d) = %d, want 3", k, got)
		}
	}
}

// blockRing is a graph whose cores sit where the headroom rule grows past
// its floor: four blocks of 150–250 vertices at ~10% edge density, each
// block joined to the next by a handful of edges so the four form a ring.
func blockRing(seed uint64) *graph.Graph {
	r := gen.NewRNG(seed)
	sizes := make([]int, 4)
	n := 0
	for i := range sizes {
		sizes[i] = 150 + r.Intn(101)
		n += sizes[i]
	}
	b := graph.NewBuilder(n)
	start := make([]int, len(sizes)+1)
	for i, sz := range sizes {
		start[i+1] = start[i] + sz
		for u := start[i]; u < start[i+1]; u++ {
			for v := u + 1; v < start[i+1]; v++ {
				if r.Float64() < 0.1 {
					b.AddEdge(u, v)
				}
			}
		}
	}
	for i := range sizes {
		j := (i + 1) % len(sizes)
		for e := 0; e < 8; e++ {
			b.AddEdge(start[i]+r.Intn(sizes[i]), start[j]+r.Intn(sizes[j]))
		}
	}
	return b.Build()
}

// TestHeadroomDenseCoresExact checks HLBUB and HLB against the naive
// oracle on a graph whose cores exceed 8·(minHeadroom+1), so every
// truncated count at the top levels runs with headroom above the floor —
// on the serial path (1 worker) and the concurrent one (2 workers,
// parallel gates forced open).
func TestHeadroomDenseCoresExact(t *testing.T) {
	forceParallel(t)
	g := blockRing(17)
	for _, h := range []int{2, 3} {
		want := NaiveDecompose(g, h)
		if top := slices.Max(want); top < 8*(minHeadroom+1) {
			t.Fatalf("h=%d: max core %d; the graph no longer reaches the growing headroom", h, top)
		}
		for _, algo := range []Algorithm{HLBUB, HLB} {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("h=%d/%v/workers=%d", h, algo, workers), func(t *testing.T) {
					eng := NewEngine(g, workers)
					defer eng.Close()
					var res Result
					if err := eng.DecomposeInto(&res, Options{H: h, Algorithm: algo}); err != nil {
						t.Fatal(err)
					}
					decomposeEqual(t, res.Core, want, "vs naive")
				})
			}
		}
	}
}
