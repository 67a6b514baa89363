package core

import (
	"repro/internal/graph"
	"repro/internal/hbfs"
)

// lb1Into computes LB1 into the engine's (lazily sized) lbA scratch
// buffer; see fillLB1.
func (e *Engine) lb1Into() []int32 {
	n := e.g.NumVertices()
	e.lbA = growInt32(e.lbA, n)
	if needsLB1BFS(e.h) {
		e.allVerts()
	}
	fillLB1(e.g, e.h, e.pool, e.verts, e.lbA, &e.stats)
	return e.lbA
}

// needsLB1BFS reports whether LB1 requires per-vertex h-BFS runs (radius
// ⌊h/2⌋ ≥ 2) rather than a plain degree read.
func needsLB1BFS(h int) bool { return h/2 >= 2 }

// fillLB1 computes LB1(v) = deg^{⌊h/2⌋}(v) for every vertex (Observation
// 1): every vertex of the ⌊h/2⌋-neighborhood of v is within distance h of
// every other, so v belongs to the (deg^{⌊h/2⌋}(v), h)-core. For h ∈ {2,3}
// the radius is 1 and LB1 is just the degree, read directly from the
// adjacency structure without BFS. verts must list every vertex id when
// needsLB1BFS(h); it is unused otherwise. stats may be nil.
func fillLB1(g *graph.Graph, h int, pool *hbfs.Pool, verts, dst []int32, stats *Stats) {
	n := g.NumVertices()
	if h < 2 {
		// Observation 1 requires h ≥ 2; deg^0 is 0, so the bound
		// degenerates and every vertex starts from the bottom bucket.
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if h/2 == 1 {
		for v := 0; v < n; v++ {
			dst[v] = int32(g.Degree(v))
		}
		return
	}
	evaluated := pool.HDegrees(verts, h/2, nil, dst)
	if stats != nil {
		stats.HDegreeComputations += evaluated
	}
}

// lb2Into lifts LB1 to LB2 (Observation 2): LB2(v) is the maximum LB1 over
// the closed ⌈h/2⌉-neighborhood of v, computed with ⌈h/2⌉ rounds of
// neighbor-max propagation, O(⌈h/2⌉·|E|) total, instead of one BFS per
// vertex. lb1 must be one of the engine's two propagation buffers (it is
// clobbered); the returned slice is whichever buffer holds the final round.
func (e *Engine) lb2Into(lb1 []int32) []int32 {
	if len(lb1) == 0 {
		return lb1
	}
	e.lbB = growInt32(e.lbB, len(lb1))
	cur, next := lb1, e.lbB
	if &cur[0] == &next[0] {
		e.lbA = growInt32(e.lbA, len(lb1))
		next = e.lbA
	}
	rounds := (e.h + 1) / 2
	for r := 0; r < rounds; r++ {
		propagateMax(e.g, cur, next)
		cur, next = next, cur
	}
	return cur
}

// propagateMax writes into next, for every vertex, the maximum of cur over
// its closed neighborhood — one round of LB2 propagation.
func propagateMax(g *graph.Graph, cur, next []int32) {
	for v := range next {
		best := cur[v]
		for _, u := range g.Neighbors(v) {
			if cur[u] > best {
				best = cur[u]
			}
		}
		next[v] = best
	}
}

// LowerBounds exposes LB1 and LB2 for analysis (Table 4). workers ≤ 0
// selects NumCPU. A nil graph yields empty slices — the analysis helpers
// are total, mirroring how an empty graph behaves; entry points that must
// report the misuse (Decompose and the ctx variants) return ErrNilGraph
// instead. Deliberately built from an h-BFS pool and three flat buffers
// rather than a full Engine: the analysis path needs none of the peeling
// scratch.
func LowerBounds(g *graph.Graph, h, workers int) (lb1, lb2 []int32) {
	if g == nil {
		return []int32{}, []int32{}
	}
	n := g.NumVertices()
	pool := hbfs.NewPool(g, workers)
	defer pool.Close()
	var verts []int32
	if needsLB1BFS(h) {
		verts = make([]int32, n)
		for v := range verts {
			verts[v] = int32(v)
		}
	}
	lb1 = make([]int32, n)
	fillLB1(g, h, pool, verts, lb1, nil)
	cur := make([]int32, n)
	copy(cur, lb1)
	next := make([]int32, n)
	for r := 0; r < (h+1)/2; r++ {
		propagateMax(g, cur, next)
		cur, next = next, cur
	}
	return lb1, cur
}

// HDegrees returns deg^h(v) for every vertex of g (all vertices alive).
// workers ≤ 0 selects NumCPU. A nil graph yields an empty slice, like an
// empty graph.
func HDegrees(g *graph.Graph, h, workers int) []int32 {
	if g == nil {
		return []int32{}
	}
	pool := hbfs.NewPool(g, workers)
	defer pool.Close()
	return pool.HDegreesAll(h, nil)
}
