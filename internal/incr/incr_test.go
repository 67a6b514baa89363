package incr

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// naiveBall returns v's radius-h ball in g (v excluded), sorted, by a
// plain BFS over a distance map. A vertex past g's vertex set is
// isolated.
func naiveBall(g *graph.Graph, v, h int) []int {
	if v >= g.NumVertices() {
		return nil
	}
	dist := map[int]int{v: 0}
	frontier := []int{v}
	var ball []int
	for d := 1; d <= h && len(frontier) > 0; d++ {
		var next []int
		for _, x := range frontier {
			for _, y := range g.Neighbors(x) {
				if _, seen := dist[int(y)]; !seen {
					dist[int(y)] = d
					next = append(next, int(y))
					ball = append(ball, int(y))
				}
			}
		}
		frontier = next
	}
	slices.Sort(ball)
	return ball
}

// applyEdits returns the graph after the batch: g's edges with the batch
// applied in order, over max(n, largest endpoint+1) vertices.
func applyEdits(g *graph.Graph, batch []Edit) *graph.Graph {
	edges := map[[2]int]bool{}
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < int(v) {
				edges[[2]int{u, int(v)}] = true
			}
		}
	}
	for _, e := range batch {
		k := [2]int{min(e.U, e.V), max(e.U, e.V)}
		n = max(n, k[1]+1)
		if e.Op == Insert {
			edges[k] = true
		} else {
			delete(edges, k)
		}
	}
	b := graph.NewBuilder(n)
	for k := range edges {
		b.AddEdge(k[0], k[1])
	}
	return b.Build()
}

// invalidationBatch draws a valid batch over g: kind 0 is a single
// insert, kind 1 a single delete (an insert when g has no edges), and
// kind 2 a mixed batch of deletes and inserts, one of them to a new
// vertex one past a gap and one the insert-then-delete of a pair.
func invalidationBatch(g *graph.Graph, r *gen.RNG, kind int) []Edit {
	n := g.NumVertices()
	has := map[[2]int]bool{}
	present := func(u, v int) bool {
		k := [2]int{min(u, v), max(u, v)}
		if p, ok := has[k]; ok {
			return p
		}
		return u < n && v < n && g.HasEdge(u, v)
	}
	var batch []Edit
	add := func(u, v int, op Op) {
		batch = append(batch, Edit{U: u, V: v, Op: op})
		has[[2]int{min(u, v), max(u, v)}] = op == Insert
	}
	insert := func() {
		for {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !present(u, v) {
				add(u, v, Insert)
				return
			}
		}
	}
	del := func() bool {
		for try := 0; try < 4*n; try++ {
			u := r.Intn(n)
			adj := g.Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			if v := int(adj[r.Intn(len(adj))]); present(u, v) {
				add(u, v, Delete)
				return true
			}
		}
		return false
	}
	switch kind {
	case 0:
		insert()
	case 1:
		if !del() {
			insert()
		}
	default:
		del()
		insert()
		del()
		u := r.Intn(n)
		add(u, n+1, Insert) // n itself stays an isolated new vertex
		add(n+1, r.Intn(n), Insert)
		x, y := r.Intn(n), r.Intn(n)
		if x != y && !present(x, y) {
			add(x, y, Insert)
			add(y, x, Delete)
		}
	}
	return batch
}

// TestSeedEditInvalidation checks the invalidation fact the maintainer's
// h-degree cache rests on: seeding a batch as the maintainer does —
// delete seeds on the graph before it, insert seeds on the graph after —
// marks unknown, in the lent cache, every vertex whose radius-h ball
// differs between the two graphs (a vertex the batch creates counts as
// isolated before it), and every vertex it marks is a region member.
// Graphs: a seeded BA graph, overlapping dense blocks, a path, a star, two
// components, and a sparse graph with isolated vertices; h = 1..4; single
// inserts, single deletes and mixed batches that add vertices.
func TestSeedEditInvalidation(t *testing.T) {
	twoParts := graph.NewBuilder(0)
	for _, off := range []int{0, 30} {
		part := gen.ErdosRenyi(30, 45, uint64(off+1))
		for u := 0; u < 30; u++ {
			for _, v := range part.Neighbors(u) {
				twoParts.AddEdge(off+u, off+int(v))
			}
		}
	}
	sparse := graph.NewBuilder(40)
	for v := 0; v+1 < 20; v += 2 {
		sparse.AddEdge(v, v+1)
		sparse.AddEdge(v+1, (v+2)%20)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"barabasi-albert", gen.BarabasiAlbert(60, 2, 3)},
		{"blocks", gen.Communities(70, 8, 6, 12, 0.05, 3)},
		{"path", gen.Path(30)},
		{"star", gen.Star(25)},
		{"two-components", twoParts.Build()},
		{"isolated", sparse.Build()},
	}
	f := NewFinder()
	for _, c := range graphs {
		changed := 0
		for h := 1; h <= 4; h++ {
			r := gen.NewRNG(uint64(100*h + len(c.name)))
			for trial := 0; trial < 24; trial++ {
				batch := invalidationBatch(c.g, r, trial%3)
				label := fmt.Sprintf("%s h=%d batch %v", c.name, h, batch)
				after := applyEdits(c.g, batch)
				n := after.NumVertices()
				hdeg := make([]int32, n)
				f.Reset(n, hdeg)
				for _, e := range batch {
					if e.Op == Delete {
						f.SeedEdit(c.g, h, e, false, true)
					}
				}
				for _, e := range batch {
					if e.Op == Insert {
						f.SeedEdit(after, h, e, true, false)
					}
				}
				inRegion := map[int32]bool{}
				for _, v := range f.Region() {
					inRegion[v] = true
				}
				for v := 0; v < n; v++ {
					differs := !slices.Equal(naiveBall(c.g, v, h), naiveBall(after, v, h))
					if differs {
						changed++
					}
					switch {
					case hdeg[v] < 0 && !inRegion[int32(v)]:
						t.Fatalf("%s: vertex %d marked unknown but not seeded into the region", label, v)
					case hdeg[v] >= 0 && differs:
						t.Fatalf("%s: vertex %d's ball changed but its cached h-degree stayed known", label, v)
					}
				}
			}
		}
		if changed == 0 {
			t.Errorf("%s: no batch changed any ball", c.name)
		}
	}
}
