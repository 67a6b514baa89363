package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The peel's interior update (removeAndUpdate) lowers the h-degree entry
// of a vertex u at distance d < h from the removed vertex v by
// |B_{h−d}(v)| − 1. The shapes below make that bound tight: a vertex
// hanging off a cut vertex reaches the whole pendant side only through
// it, so removing the cut vertex costs it every member of the ball but
// one. A bound one tighter than the proven one lets such a vertex sit a
// level above its true h-degree, and the peel then settles it one level
// too high.

// shapeBuilder grows an edge list with fresh vertex ids.
type shapeBuilder struct {
	n     int
	edges [][2]int
}

func (b *shapeBuilder) vertex() int { b.n++; return b.n - 1 }

func (b *shapeBuilder) edge(u, v int) { b.edges = append(b.edges, [2]int{u, v}) }

// clique adds K_m and returns its vertices.
func (b *shapeBuilder) clique(m int) []int {
	vs := make([]int, m)
	for i := range vs {
		vs[i] = b.vertex()
		for _, u := range vs[:i] {
			b.edge(u, vs[i])
		}
	}
	return vs
}

// path hangs a path of length l off at and returns its far end.
func (b *shapeBuilder) path(at, l int) int {
	for ; l > 0; l-- {
		w := b.vertex()
		b.edge(at, w)
		at = w
	}
	return at
}

// broom hangs a handle of length l off at, ending in a hub with
// bristles leaves.
func (b *shapeBuilder) broom(at, l, bristles int) {
	hub := b.path(at, l)
	for i := 0; i < bristles; i++ {
		b.edge(hub, b.vertex())
	}
}

// tree hangs a complete tree of the given fan-out and depth off at.
func (b *shapeBuilder) tree(at, fanout, depth int) {
	if depth == 0 {
		return
	}
	for i := 0; i < fanout; i++ {
		c := b.vertex()
		b.edge(at, c)
		b.tree(c, fanout, depth-1)
	}
}

func (b *shapeBuilder) build() *graph.Graph { return graph.FromEdges(b.n, b.edges) }

// pendantCutShape is a clique whose members are cut vertices carrying a
// path, a star, a complete tree and a broom, plus a second clique hung off
// one member through a path.
func pendantCutShape(m int) *graph.Graph {
	var b shapeBuilder
	k := b.clique(m)
	b.path(k[0], 4)
	b.broom(k[1], 1, 5)
	b.tree(k[2], 2, 3)
	b.broom(k[3], 3, 4)
	far := b.path(k[4], 2)
	k2 := b.clique(m - 2)
	b.edge(far, k2[0])
	b.tree(k2[1], 3, 2)
	return b.build()
}

// broomShape is a row of brooms whose handles meet at one hub clique.
func broomShape(brooms, handle, bristles int) *graph.Graph {
	var b shapeBuilder
	hub := b.clique(4)
	for i := 0; i < brooms; i++ {
		b.broom(hub[i%len(hub)], handle+i%3, bristles+i)
	}
	return b.build()
}

// barbellShape joins cliques K_a and K_b through one middle vertex: the
// middle vertex is adjacent to `links` members of each clique, and each
// clique also carries a pendant star.
func barbellShape(a, bsize, links int) *graph.Graph {
	var b shapeBuilder
	left, right := b.clique(a), b.clique(bsize)
	mid := b.vertex()
	for i := 0; i < links; i++ {
		b.edge(mid, left[i])
		b.edge(mid, right[i])
	}
	b.broom(left[a-1], 1, 3)
	b.broom(right[bsize-1], 2, 3)
	return b.build()
}

// cutRing strings copies of a shape mix into a ring, joining consecutive
// pieces through a single path — every joint is a cut vertex, and the
// ring is long enough for an edit in one piece to stay local.
func cutRing(seed uint64, pieces int) *graph.Graph {
	r := gen.NewRNG(seed)
	var b shapeBuilder
	first, prev := -1, -1
	for i := 0; i < pieces; i++ {
		var k []int
		switch i % 3 {
		case 0:
			k = b.clique(4 + r.Intn(4))
			b.broom(k[0], 1+r.Intn(2), 2+r.Intn(4))
		case 1:
			k = b.clique(3 + r.Intn(3))
			b.tree(k[0], 2, 2)
		default:
			left, right := b.clique(4), b.clique(3+r.Intn(3))
			mid := b.vertex()
			b.edge(mid, left[0])
			b.edge(mid, right[0])
			k = left
		}
		if prev >= 0 {
			b.edge(b.path(prev, 1), k[len(k)-1])
		} else {
			first = k[len(k)-1]
		}
		prev = k[1]
	}
	b.edge(b.path(prev, 1), first)
	return b.build()
}

func lossBoundShapes() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"pendant-cut":   pendantCutShape(7),
		"pendant-cut-9": pendantCutShape(9),
		"brooms":        broomShape(6, 1, 3),
		"long-brooms":   broomShape(5, 3, 6),
		"barbell":       barbellShape(6, 5, 1),
		"barbell-wide":  barbellShape(7, 7, 3),
		"cut-ring":      cutRing(3, 9),
	}
}

// TestLossBoundExact checks HLB and HLBUB against the naive oracle on the
// tight-bound shapes at h = 2..5, on the serial path (1 worker) and the
// concurrent one (2 workers, schedule forced open).
func TestLossBoundExact(t *testing.T) {
	forceParallel(t)
	for name, g := range lossBoundShapes() {
		for h := 2; h <= 5; h++ {
			want := NaiveDecompose(g, h)
			for _, algo := range []Algorithm{HLBUB, HLB} {
				for _, workers := range []int{1, 2} {
					eng := NewEngine(g, workers)
					var res Result
					err := eng.DecomposeInto(&res, Options{H: h, Algorithm: algo})
					eng.Close()
					if err != nil {
						t.Fatal(err)
					}
					decomposeEqual(t, res.Core, want, fmt.Sprintf("%s h=%d %v workers=%d", name, h, algo, workers))
				}
			}
		}
	}
}

// TestLossBoundRepairExact runs edit streams on the cut-vertex ring
// through the Maintainer, whose localized repair re-peels the dirty region
// with the same interior update, and checks every batch against the
// naive oracle — at 1 and 2 workers, requiring the localized path to run
// (the ring grows with h so that a radius-h region stays local).
func TestLossBoundRepairExact(t *testing.T) {
	forceParallel(t)
	for h := 2; h <= 5; h++ {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("h=%d/workers=%d", h, workers), func(t *testing.T) {
				m, err := NewMaintainer(cutRing(uint64(h), 8*h), h, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				rng := gen.NewRNG(uint64(10*h + workers))
				localized := 0
				for step := 0; step < 12; step++ {
					batch := randomBatch(t, m, rng, 1+rng.Intn(2))
					if err := m.ApplyBatch(context.Background(), batch); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if m.LastStats().Incr.Localized {
						localized++
					}
					decomposeEqual(t, m.Core(), NaiveDecompose(m.Graph(), h), fmt.Sprintf("step %d", step))
				}
				if localized == 0 {
					t.Error("no batch took the localized repair path")
				}
			})
		}
	}
}
