package hbfs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vset"
)

// refTraversal keeps the per-neighbour h-BFS the kernels used before the
// word-at-a-time level expansion: test the visited mark, then the alive
// mask, then mark and enqueue, one neighbour at a time. It is the
// reference the kernels must match exactly — queue order, shell split,
// level ends, counts and visits.
type refTraversal struct {
	g      *graph.Graph
	seen   []bool
	queue  []int32
	levels []int32
	visits int64
}

func newRefTraversal(g *graph.Graph) *refTraversal {
	return &refTraversal{g: g, seen: make([]bool, g.NumVertices())}
}

func (t *refTraversal) valid(src, h int, alive *vset.Set) bool {
	if src < 0 || src >= t.g.NumVertices() || h < 1 {
		return false
	}
	return alive == nil || alive.Contains(src)
}

func (t *refTraversal) clearSeen(q []int32) {
	for _, v := range q {
		t.seen[v] = false
	}
}

// ball is the reference full search; cap > 0 stops it once cap
// vertices besides the source are enqueued, as HDegreeCapped does.
func (t *refTraversal) ball(src, h int, alive *vset.Set, cap int) (q []int32, shellStart int) {
	q = append(t.queue[:0], int32(src))
	t.seen[src] = true
	t.levels = append(t.levels[:0], 1)
	levelStart := 0
	for d := 1; d <= h; d++ {
		levelEnd := len(q)
		for i := levelStart; i < levelEnd; i++ {
			for _, u := range t.g.Neighbors(int(q[i])) {
				if t.seen[u] {
					continue
				}
				if alive != nil && !alive.Contains(int(u)) {
					continue
				}
				t.seen[u] = true
				q = append(q, u)
				if cap > 0 && len(q) > cap {
					t.clearSeen(q)
					t.queue = q
					t.visits += int64(len(q))
					return q, -1
				}
			}
		}
		if len(q) == levelEnd {
			shellStart = len(q)
			goto done
		}
		t.levels = append(t.levels, int32(len(q)))
		levelStart = levelEnd
	}
	shellStart = levelStart
done:
	t.clearSeen(q)
	t.queue = q
	t.visits += int64(len(q))
	return q, shellStart
}

// aliveNeighbors is the h = 1 reference: the masked adjacency list,
// stopping after cap members when cap > 0.
func (t *refTraversal) aliveNeighbors(src int, alive *vset.Set, cap int) []int32 {
	q := t.queue[:0]
	for _, u := range t.g.Neighbors(src) {
		if alive == nil || alive.Contains(int(u)) {
			q = append(q, u)
			if cap > 0 && len(q) >= cap {
				break
			}
		}
	}
	t.queue = q
	t.visits += int64(len(q)) + 1
	return q
}

func (t *refTraversal) Ball(src, h int, alive *vset.Set) (verts []int32, shellStart int) {
	if !t.valid(src, h, alive) {
		return nil, 0
	}
	if h == 1 {
		q := t.aliveNeighbors(src, alive, 0)
		t.levels = append(t.levels[:0], 1)
		if len(q) > 0 {
			t.levels = append(t.levels, int32(len(q))+1)
		}
		return q, 0
	}
	q, shell := t.ball(src, h, alive, 0)
	return q[1:], shell - 1
}

func (t *refTraversal) HDegree(src, h int, alive *vset.Set) int {
	if !t.valid(src, h, alive) {
		return 0
	}
	if h == 1 {
		return len(t.aliveNeighbors(src, alive, 0))
	}
	q, _ := t.ball(src, h, alive, 0)
	return len(q) - 1
}

func (t *refTraversal) HDegreeCapped(src, h int, alive *vset.Set, cap int) int {
	if cap <= 0 || !t.valid(src, h, alive) {
		return 0
	}
	if h == 1 {
		return len(t.aliveNeighbors(src, alive, cap))
	}
	q, _ := t.ball(src, h, alive, cap)
	if len(q) > cap {
		return cap
	}
	return len(q) - 1
}

// kernelChecker runs the kernels and the reference side by side on one
// graph, each with its own long-lived scratch, so every comparison also
// exercises the all-zero-between-searches invariant of the visited marks.
type kernelChecker struct {
	tb  testing.TB
	g   *graph.Graph
	tr  *Traversal
	ref *refTraversal
}

func newKernelChecker(tb testing.TB, g *graph.Graph) *kernelChecker {
	return &kernelChecker{tb: tb, g: g, tr: NewTraversal(g), ref: newRefTraversal(g)}
}

// visits fails unless both sides charged the same visits since the last
// call, and resets both counters.
func (c *kernelChecker) visits(label string) {
	c.tb.Helper()
	if got, want := c.tr.Visits(), c.ref.visits; got != want {
		c.tb.Fatalf("%s: visits %d, reference %d", label, got, want)
	}
	c.tr.ResetVisits()
	c.ref.visits = 0
}

// check compares Ball (verts, shell split, level ends), HDegree and
// HDegreeCapped for every cap in 1..|ball|+1 (every capStride-th cap past
// 8) from src, and the visits each call charged.
func (c *kernelChecker) check(name string, src, h int, alive *vset.Set, capStride int) {
	c.tb.Helper()
	label := fmt.Sprintf("%s src=%d h=%d", name, src, h)
	verts, shell := c.tr.Ball(src, h, alive)
	rverts, rshell := c.ref.Ball(src, h, alive)
	if !slices.Equal(verts, rverts) || shell != rshell {
		c.tb.Fatalf("%s: Ball = %v shell %d, reference %v shell %d", label, verts, shell, rverts, rshell)
	}
	if rverts != nil && !slices.Equal(c.tr.LevelEnds(), c.ref.levels) {
		c.tb.Fatalf("%s: LevelEnds = %v, reference %v", label, c.tr.LevelEnds(), c.ref.levels)
	}
	c.visits(label + " Ball")
	deg := c.tr.HDegree(src, h, alive)
	if want := c.ref.HDegree(src, h, alive); deg != want {
		c.tb.Fatalf("%s: HDegree = %d, reference %d", label, deg, want)
	}
	c.visits(label + " HDegree")
	for cap := 1; cap <= deg+2; cap++ {
		if cap > 8 && cap < deg && cap%capStride != 0 {
			continue
		}
		got, want := c.tr.HDegreeCapped(src, h, alive, cap), c.ref.HDegreeCapped(src, h, alive, cap)
		if got != want {
			c.tb.Fatalf("%s cap=%d: HDegreeCapped = %d, reference %d", label, cap, got, want)
		}
		c.visits(fmt.Sprintf("%s cap=%d HDegreeCapped", label, cap))
	}
}

// maskKinds returns the masks every source is checked under: none, full,
// sparse (~1 in 8 alive), random (~7 in 10 alive) and, built per source by
// checkAllMasks, the source alone.
func maskKinds(n int, seed uint64) map[string]*vset.Set {
	r := gen.NewRNG(seed)
	full, sparse, random := vset.New(n), vset.New(n), vset.New(n)
	full.Fill()
	for v := 0; v < n; v++ {
		if r.Intn(8) == 0 {
			sparse.Add(v)
		}
		if r.Intn(10) < 7 {
			random.Add(v)
		}
	}
	return map[string]*vset.Set{"nil": nil, "full": full, "sparse": sparse, "random": random}
}

// checkAllMasks checks every source of g at h = 1..maxH under every mask
// kind, including the source-alone mask.
func (c *kernelChecker) checkAllMasks(name string, maxH, capStride int, seed uint64) {
	c.tb.Helper()
	n := c.g.NumVertices()
	masks := maskKinds(n, seed)
	alone := vset.New(n)
	for h := 1; h <= maxH; h++ {
		for _, kind := range []string{"nil", "full", "sparse", "random"} {
			for src := 0; src < n; src++ {
				c.check(fmt.Sprintf("%s/%s", name, kind), src, h, masks[kind], capStride)
			}
		}
		for src := 0; src < n; src++ {
			alone.Clear()
			alone.Add(src)
			c.check(name+"/alone", src, h, alone, capStride)
		}
	}
}

// denseBlocks builds contiguous blocks of ids (sizes 5..90, so blocks
// start and end inside words and span several) with about 70% of each
// block's pairs as edges, leaving every eleventh vertex isolated. Most
// adjacency lists hold many neighbours per 64-bit word.
func denseBlocks(n int, seed uint64) *graph.Graph {
	r := gen.NewRNG(seed)
	b := graph.NewBuilder(n)
	for start := 0; start < n; {
		end := min(n, start+5+r.Intn(86))
		for x := start; x < end; x++ {
			for y := x + 1; y < end; y++ {
				if x%11 != 0 && y%11 != 0 && r.Intn(10) < 7 {
					b.AddEdge(x, y)
				}
			}
		}
		// Sparse links between consecutive blocks keep longer paths alive.
		if end < n && start%11 != 0 {
			b.AddEdge(start, end)
		}
		start = end
	}
	return b.Build()
}

// relabelled returns g with its ids permuted at random, which spreads
// every adjacency list over many words.
func relabelled(g *graph.Graph, seed uint64) *graph.Graph {
	n := g.NumVertices()
	perm := gen.NewRNG(seed).Perm(n)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				b.AddEdge(perm[v], perm[u])
			}
		}
	}
	return b.Build()
}

// wordEdges builds a graph on 131 vertices whose lists cross word
// boundaries at 63/64/65, reach into the last partial word (128..130),
// and leave some vertices isolated.
func wordEdges() *graph.Graph {
	b := graph.NewBuilder(131)
	edge := func(u, v int) { b.AddEdge(u, v) }
	hub := []int{0, 1, 62, 63, 64, 65, 66, 126, 127, 128, 129, 130}
	for i, u := range hub {
		for _, v := range hub[i+1:] {
			if (u+v)%3 != 0 {
				edge(u, v)
			}
		}
	}
	for v := 2; v < 62; v += 2 {
		edge(v, 63)
		edge(v, v+1)
	}
	for v := 67; v < 126; v += 3 {
		edge(v, 64)
		edge(v, 130)
	}
	edge(65, 128)
	return b.Build()
}

// TestKernelsMatchReference checks Ball, HDegree, HDegreeCapped and their
// visit counts for exact equality with the per-neighbour reference on
// dense word-run lists, spread (relabelled BA) lists, ids around word
// boundaries and in the last partial word, and isolated vertices, under
// nil, full, sparse, random and source-alone masks at h = 1..5.
func TestKernelsMatchReference(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		capStride int
	}{
		{"dense-blocks", denseBlocks(230, 1), 5},
		{"ba-relabelled", relabelled(gen.BarabasiAlbert(200, 3, 2), 3), 7},
		{"word-edges", wordEdges(), 1},
		{"mixed", relabelled(denseBlocks(150, 4), 5), 5},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newKernelChecker(t, tc.g)
			c.checkAllMasks(tc.name, 5, tc.capStride, uint64(i))
		})
	}
}

// FuzzKernelsMatchReference builds a small graph and a mask from the fuzz
// bytes and checks every source against the reference. The first bytes
// choose n (up to 200, so lists cross words), h and the mask; the rest
// are (op, x, y) triples: op%4 == 0 adds a clique on the id range
// [x, x+y%24], which makes word runs, anything else the edge {x, y}.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add([]byte{130, 2, 0, 0, 60, 10, 1, 63, 64, 2, 0, 129})
	f.Add([]byte{200, 4, 3, 0, 0, 23, 0, 40, 23, 0, 100, 20, 1, 5, 190, 1, 190, 70})
	f.Add([]byte{64, 1, 1, 1, 0, 63, 0, 10, 30})
	f.Add([]byte{66, 5, 4, 1, 1, 2, 1, 2, 3, 1, 3, 64, 1, 64, 65})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%200
		h := 1 + int(data[1])%5
		maskKind, seed := data[2]%5, uint64(data[2])
		b := graph.NewBuilder(n)
		for i := 3; i+2 < len(data); i += 3 {
			x, y := int(data[i+1])%n, int(data[i+2])
			if data[i]%4 == 0 {
				for u := x; u <= min(n-1, x+y%24); u++ {
					for v := u + 1; v <= min(n-1, x+y%24); v++ {
						b.AddEdge(u, v)
					}
				}
			} else if x != y%n {
				b.AddEdge(x, y%n)
			}
		}
		c := newKernelChecker(t, b.Build())
		var alive *vset.Set
		alone := maskKind == 4
		if !alone {
			alive = maskKinds(n, seed)[[]string{"nil", "full", "sparse", "random"}[maskKind]]
		} else {
			alive = vset.New(n)
		}
		for src := 0; src < n; src++ {
			if alone {
				alive.Clear()
				alive.Add(src)
			}
			c.check("fuzz", src, h, alive, 3)
		}
	})
}
