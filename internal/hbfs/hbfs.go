// Package hbfs implements h-bounded breadth-first search over a graph with
// an "alive" vertex mask, which is the workhorse of every (k,h)-core
// algorithm in this repository. The package exposes a small family of
// specialized kernels instead of one generic callback traversal, so each
// algorithm pays only for what it needs:
//
//   - HDegree — count-only sweep: no distances are materialized and no
//     callback runs; the BFS is level-synchronous, so the frontier
//     boundaries replace the per-vertex distance array entirely.
//   - HDegreeCapped / HDegreeAtLeast — threshold kernels that abort the
//     traversal as soon as the requested number of reachable vertices has
//     been found; peeling loops use them to test an h-degree against the
//     current frontier without exploring the full h-ball.
//   - Ball — the zero-copy neighborhood: reached vertices in BFS order,
//     split into the distance-<h interior and the distance-exactly-h shell
//     (the shell loses exactly one h-neighbor when the source is deleted,
//     which is the O(1)-decrement shortcut of the peeling algorithms).
//   - Visit / Neighborhood — the compatibility layer for callers that want
//     per-vertex distances; distances are reconstructed from the level
//     boundaries, still without a distance array.
//
// Every kernel has an h = 1 fast path that reads the adjacency list (and
// the alive mask) directly instead of running a BFS, so classic-core
// workloads never touch the queue.
//
// Ball, HDegree and HDegreeCapped share one level-expansion routine
// (Traversal.expand) that tests visited marks a 64-vertex word at a time.
// Adjacency lists are sorted and duplicate-free, so each list picks a
// path from its own shape, read from its first and last id: a dense list
// (two or more neighbours per word on average) ORs each run of
// neighbours sharing a word into a mask and takes all its fresh, alive
// bits with one word operation; a spread list tests each neighbour
// without a data-dependent branch, writing it to the queue's spare next
// slot and advancing the length by its fresh bit. Fresh bits are appended
// in increasing order, which in a sorted list is adjacency order, so the
// queue, the shell split, the level ends and every count are exactly
// those of the plain per-neighbour loop.
//
// A Traversal owns reusable scratch memory so repeated searches allocate
// nothing, and it counts the number of vertices it enqueues across all
// searches — the paper's "number of computed point-to-point distances"
// metric (Table 3). Early-exiting kernels count exactly the vertices of
// the truncated traversal. Alive masks are packed vset.Sets (see
// internal/vset), shared with the peeling algorithms and the
// applications; the traversal's own visited marks are a plain bitset kept
// all-zero between searches, so the hot loop pays no epoch check on them.
package hbfs

import (
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/vset"
)

// Traversal holds the scratch state for h-bounded BFS runs on a single
// graph. It is NOT safe for concurrent use; create one per worker (see
// Pool).
type Traversal struct {
	g *graph.Graph
	// seen is a plain (un-stamped) bitset over vertex ids. Invariant: it
	// is all-zero between searches — every search marks only the vertices
	// it enqueues and unmarks them from the queue before returning, so no
	// epoch bookkeeping is paid in the hot loop.
	seen []uint64
	// queue holds the current search's vertices in (distance, discovery)
	// order. Its capacity is n + 1: the spare slot takes the speculative
	// write of expand's spread path when all n vertices are enqueued.
	queue []int32
	// levels[d] is the queue index one past the distance-d block of the
	// last full search — equivalently |B_d(src)|, the alive ball of radius
	// d with src included; levels[0] is always 1 (the source block). Ball's
	// h = 1 fast path records it too (see LevelEnds).
	levels []int32
	// visits counts vertices enqueued across all searches performed by
	// this traversal since construction or the last ResetVisits.
	visits int64
	// expansions / truncs are the sampled-kernel work counters (see
	// sampled.go): frontier vertices actually expanded, and frontiers the
	// budget subsampled. Reset together with visits.
	expansions int64
	truncs     int64
	// blockEnd / blockWeight are the per-level scratch of SampledBall
	// (≤ h entries; the exact kernels use levels instead).
	blockEnd    []int32
	blockWeight []float64
	// fresh is a second bitset marking only the current level's
	// discoveries during a subsampled SampledBall expansion (the
	// edge-endpoint counter behind the coverage inversion). Same
	// all-zero-between-uses invariant as seen; sized lazily because the
	// exact kernels never touch it.
	fresh []uint64
}

// NewTraversal returns a Traversal with scratch sized for g.
func NewTraversal(g *graph.Graph) *Traversal {
	t := &Traversal{}
	t.Reset(g)
	return t
}

// Reset re-binds the traversal to g, reusing the existing scratch whenever
// its capacity suffices. The visit counter is preserved.
func (t *Traversal) Reset(g *graph.Graph) {
	n := g.NumVertices()
	t.g = g
	if w := (n + 63) / 64; cap(t.seen) < w {
		t.seen = make([]uint64, w) // zeroed: the between-searches invariant
	} else {
		t.seen = t.seen[:w]
	}
	if cap(t.queue) < n+1 {
		t.queue = make([]int32, 0, n+1) // the spare slot of expand's spread path
	}
	t.queue = t.queue[:0]
}

// seenTest reports whether u is marked.
//
//khcore:hotpath
func (t *Traversal) seenTest(u int32) bool {
	return t.seen[u>>6]>>(uint(u)&63)&1 != 0
}

// seenMark marks u.
//
//khcore:hotpath
func (t *Traversal) seenMark(u int32) {
	t.seen[u>>6] |= 1 << (uint(u) & 63)
}

// clearSeen restores the all-zero invariant by unmarking the enqueued
// vertices (only enqueued vertices are ever marked).
//
//khcore:hotpath
func (t *Traversal) clearSeen(q []int32) {
	for _, v := range q {
		t.seen[v>>6] = 0
	}
}

// Visits returns the cumulative number of vertices enqueued by this
// traversal's searches (truncated searches count only what they explored).
func (t *Traversal) Visits() int64 { return t.visits }

// ResetVisits zeroes the visit counter along with the sampled-kernel
// expansion and truncation counters.
func (t *Traversal) ResetVisits() { t.visits, t.expansions, t.truncs = 0, 0, 0 }

// AddVisits adds n to the visit counter; used by algorithms that account
// for work performed outside a BFS (e.g. neighbor-list decrements).
func (t *Traversal) AddVisits(n int64) { t.visits += n }

// valid reports whether src is a live in-range source for a search of
// radius h.
//
//khcore:hotpath
func (t *Traversal) valid(src, h int, alive *vset.Set) bool {
	if src < 0 || src >= t.g.NumVertices() || h < 1 {
		return false
	}
	return alive == nil || alive.Contains(src)
}

// ball runs the level-synchronous h-bounded BFS from src, leaving the
// reached vertices in t.queue in (distance, discovery) order — queue[0] is
// src, then the distance-1 block, and so on — and recording the block
// boundaries in t.levels. It returns the queue and the index where the
// distance-exactly-h block starts (len(queue) when the ball's radius is
// below h). A search that enqueues more than limit vertices stops there:
// the queue then holds exactly limit+1 of them and the shell index and
// levels are meaningless. The caller must finish with the returned slice
// before starting another search on this traversal.
//
//khcore:hotpath
func (t *Traversal) ball(src, h int, alive *vset.Set, limit int) (q []int32, shellStart int) {
	q = append(t.queue[:0], int32(src))
	t.seenMark(int32(src))
	t.levels = append(t.levels[:0], 1)
	levelStart, levelEnd := 0, 1
	for d := 1; d <= h && len(q) <= limit; d++ {
		q = t.expand(q, levelStart, levelEnd, alive, limit)
		if len(q) == levelEnd {
			break // the frontier died before distance h: no shell
		}
		t.levels = append(t.levels, int32(len(q)))
		levelStart, levelEnd = levelEnd, len(q)
	}
	shellStart = len(q)
	if len(t.levels) == h+1 {
		shellStart = levelStart
	}
	t.clearSeen(q)
	t.queue = q
	t.visits += int64(len(q))
	return q, shellStart
}

// expand appends to q every unmarked alive neighbour of the frontier
// q[from:to], marking each, in the order of the plain per-neighbour loop
// (frontier order, then adjacency order), and stops as soon as q holds
// more than limit vertices. Each list takes the dense or the spread path
// of the package comment, chosen from its first and last id; the spread
// path's speculative write may land one past a full queue, which is why
// the queue keeps a spare slot (see Reset). Neither path serves every
// graph alone: word runs for every list made the exact decompositions of
// the graphs whose lists are mostly spread (BA, caAs, amzn) 27–46%
// slower, and branch-free tests for every list made the caveman blocks'
// decomposition 3× slower (measured per graph; see README, Performance).
//
//khcore:hotpath
func (t *Traversal) expand(q []int32, from, to int, alive *vset.Set, limit int) []int32 {
	seen := t.seen
	m := len(q)
	q = q[:cap(q)]
	for i := from; i < to; i++ {
		adj := t.g.Neighbors(int(q[i]))
		if len(adj) == 0 {
			continue
		}
		if words := int(adj[len(adj)-1]>>6-adj[0]>>6) + 1; len(adj) >= 2*words {
			for j := 0; j < len(adj); {
				w := adj[j] >> 6
				var mask uint64
				for ; j < len(adj) && adj[j]>>6 == w; j++ {
					mask |= 1 << (uint(adj[j]) & 63)
				}
				fresh := mask &^ seen[w]
				if alive != nil {
					fresh &= alive.Word(int(w))
				}
				if fresh == 0 {
					continue
				}
				seen[w] |= fresh
				for base := w << 6; fresh != 0; fresh &= fresh - 1 {
					q[m] = base + int32(bits.TrailingZeros64(fresh))
					if m++; m > limit {
						return q[:m]
					}
				}
			}
			continue
		}
		for _, u := range adj {
			w, b := u>>6, uint(u)&63
			bit := ^seen[w] >> b & 1
			if alive != nil {
				bit &= alive.Word(int(w)) >> b
			}
			seen[w] |= bit << b
			q[m] = u
			if m += int(bit); m > limit {
				return q[:m]
			}
		}
	}
	return q[:m]
}

// HDegree returns |N_{G[alive]}(src, h)|: the number of alive vertices
// other than src within distance h of src, where paths may only pass
// through alive vertices. A nil alive mask means all vertices are alive.
// If src itself is dead the result is 0. This is the count-only kernel: no
// distances are written and no callback runs.
//
//khcore:hotpath
func (t *Traversal) HDegree(src, h int, alive *vset.Set) int {
	if !t.valid(src, h, alive) {
		return 0
	}
	if h == 1 {
		return t.hDegree1(src, alive)
	}
	q, _ := t.ball(src, h, alive, math.MaxInt)
	return len(q) - 1
}

// hDegree1 is the h = 1 fast path: the h-degree is the (alive-masked)
// adjacency degree, read without touching the BFS queue.
//
//khcore:hotpath
func (t *Traversal) hDegree1(src int, alive *vset.Set) int {
	adj := t.g.Neighbors(src)
	if alive == nil {
		t.visits += int64(len(adj)) + 1
		return len(adj)
	}
	deg := 0
	for _, u := range adj {
		if alive.Contains(int(u)) {
			deg++
		}
	}
	t.visits += int64(deg) + 1
	return deg
}

// HDegreeCapped returns min(deg^h(src), cap): the search aborts as soon as
// cap reachable vertices have been found, so callers that only compare an
// h-degree against a threshold pay for at most cap discoveries instead of
// the whole h-ball. A result < cap is the exact h-degree; a result equal
// to cap means only that the h-degree is ≥ cap. The visit counter reflects
// the truncated traversal exactly. cap ≤ 0 returns 0 immediately.
//
//khcore:hotpath
func (t *Traversal) HDegreeCapped(src, h int, alive *vset.Set, cap int) int {
	if cap <= 0 || !t.valid(src, h, alive) {
		return 0
	}
	if h == 1 {
		return t.hDegree1Capped(src, alive, cap)
	}
	q, _ := t.ball(src, h, alive, cap)
	if len(q) > cap {
		// cap reachable vertices found (src excluded); every enqueued
		// vertex is within distance ≤ h, so the bound is already proven.
		return cap
	}
	return len(q) - 1
}

// hDegree1Capped scans the adjacency list until cap alive neighbors have
// been found, mirroring the truncated-BFS accounting of HDegreeCapped.
//
//khcore:hotpath
func (t *Traversal) hDegree1Capped(src int, alive *vset.Set, cap int) int {
	deg := 0
	for _, u := range t.g.Neighbors(src) {
		if alive == nil || alive.Contains(int(u)) {
			deg++
			if deg >= cap {
				break
			}
		}
	}
	t.visits += int64(deg) + 1
	return deg
}

// HDegreeAtLeast reports whether deg^h_{G[alive]}(src) ≥ k, aborting the
// BFS as soon as the answer is decided: k discoveries prove it, queue
// exhaustion refutes it. k ≤ 0 is trivially true.
//
//khcore:hotpath
func (t *Traversal) HDegreeAtLeast(src, h int, alive *vset.Set, k int) bool {
	if k <= 0 {
		return true
	}
	return t.HDegreeCapped(src, h, alive, k) >= k
}

// Ball runs a full h-bounded BFS from src and returns the reached vertices
// (excluding src) in (distance, discovery) order, together with the index
// where the distance-exactly-h shell starts — shellStart == len(verts)
// when the ball's radius is below h. Deleting src decreases the h-degree
// of every shell vertex by exactly one, which is what makes the split
// worth exposing. The returned slice aliases the traversal's scratch (or,
// on the h = 1 fast path with a nil mask, the graph's adjacency storage):
// it is read-only and valid only until the next search on this traversal.
//
//khcore:hotpath
func (t *Traversal) Ball(src, h int, alive *vset.Set) (verts []int32, shellStart int) {
	if !t.valid(src, h, alive) {
		return nil, 0
	}
	if h == 1 {
		adj := t.g.Neighbors(src)
		if alive == nil {
			t.visits += int64(len(adj)) + 1
			t.setLevels1(len(adj))
			return adj, 0
		}
		q := t.queue[:0]
		for _, u := range adj {
			if alive.Contains(int(u)) {
				q = append(q, u)
			}
		}
		t.queue = q
		t.visits += int64(len(q)) + 1
		t.setLevels1(len(q))
		return q, 0
	}
	q, shell := t.ball(src, h, alive, math.MaxInt)
	return q[1:], shell - 1
}

// setLevels1 records the level boundaries of an h = 1 fast-path ball with
// deg neighbors, so LevelEnds never reports a previous search's levels.
//
//khcore:hotpath
func (t *Traversal) setLevels1(deg int) {
	t.levels = append(t.levels[:0], 1)
	if deg > 0 {
		t.levels = append(t.levels, int32(deg)+1)
	}
}

// LevelEnds returns the per-distance block ends of the last Ball:
// ends[d] = |B_d(src)|, the number of reached vertices within distance d
// of src with src included, for d = 0..R, where R ≤ h is the largest
// distance the search reached (so len(ends) = R+1, and |B_d(src)| =
// ends[R] for every d > R). In Ball's verts, which exclude src, the
// distance-d block is verts[ends[d-1]-1 : ends[d]-1]. The slice aliases
// the traversal's scratch: it is read-only, costs no allocation, and is
// valid only until the next search on this traversal (after any other
// kernel its content is unspecified).
//
//khcore:hotpath
func (t *Traversal) LevelEnds() []int32 { return t.levels }

// Visit runs an h-bounded BFS from src over alive vertices and invokes fn
// for every reached vertex u ≠ src with its distance d(src,u) ∈ [1, h].
// Vertices are reported in BFS (distance, discovery) order, after the
// traversal has completed. fn must not re-enter this Traversal; use a
// second Traversal for nested searches.
//
//khcore:hotpath
func (t *Traversal) Visit(src, h int, alive *vset.Set, fn func(u int32, d int32)) {
	if !t.valid(src, h, alive) {
		return
	}
	// Ball has materialized (or, at h = 1 without a mask, aliased) the
	// whole ball before fn runs, so fn may freely mutate the mask.
	verts, _ := t.Ball(src, h, alive)
	ends := t.LevelEnds()
	for d := 1; d < len(ends); d++ {
		for _, u := range verts[ends[d-1]-1 : ends[d]-1] {
			fn(u, int32(d))
		}
	}
}

// Neighborhood collects the h-bounded neighborhood of src into dst (reset
// to length 0 first) as (vertex, distance) pairs and returns it. The
// returned slice aliases dst's backing array when capacity suffices.
func (t *Traversal) Neighborhood(src, h int, alive *vset.Set, dst []VD) []VD {
	dst = dst[:0]
	t.Visit(src, h, alive, func(u int32, d int32) {
		dst = append(dst, VD{V: u, D: d})
	})
	return dst
}

// VD is a (vertex, distance) pair produced by Neighborhood.
type VD struct {
	V int32
	D int32
}
