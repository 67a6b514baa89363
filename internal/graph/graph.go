// Package graph provides the undirected, unweighted graph substrate used
// throughout the repository: a compact CSR (compressed sparse row)
// representation, a builder that normalizes raw edge lists (dedup, self-loop
// removal), plain and bounded BFS, induced subgraphs, connected components,
// diameter computation and the h-power graph G^h.
//
// Vertices are dense integers 0..N-1 stored as int32; all public methods use
// int for ergonomics. Graphs are immutable after construction, which makes
// them safe for concurrent readers (the decomposition algorithms rely on
// this for their parallel h-BFS passes).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected, unweighted graph in CSR form.
// The zero value is an empty graph with no vertices.
type Graph struct {
	offsets []int32 // len n+1; adjacency of v is edges[offsets[v]:offsets[v+1]]
	edges   []int32 // len 2m, sorted within each adjacency list
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if g == nil || len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int {
	if g == nil {
		return 0
	}
	return len(g.edges) / 2
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency list of v as a shared, sorted, read-only
// slice. Callers must not modify it. Every list is strictly increasing —
// sorted and free of duplicates: Build guarantees it and Splice keeps it
// under its preconditions. The h-BFS kernels (internal/hbfs) rely on it to take a list's neighbours a
// 64-bit word at a time in adjacency order.
func (g *Graph) Neighbors(v int) []int32 {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	adj := g.Neighbors(u)
	t := int32(v)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= t })
	return i < len(adj) && adj[i] == t
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree 2|E|/|V|, or 0 for an empty
// graph.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(2*g.NumEdges()) / float64(n)
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d}", g.NumVertices(), g.NumEdges())
}

// Builder accumulates undirected edges and assembles an immutable Graph.
// Duplicate edges and self-loops are discarded. The zero value is unusable;
// create builders with NewBuilder.
type Builder struct {
	n     int
	pairs [][2]int32
}

// NewBuilder returns a Builder for a graph with n vertices (0..n-1).
// Additional vertices are added implicitly by AddEdge if an endpoint
// exceeds the current count.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// Endpoints beyond the current vertex count grow the graph.
func (b *Builder) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	if u > v {
		u, v = v, u
	}
	b.pairs = append(b.pairs, [2]int32{int32(u), int32(v)})
}

// NumVertices returns the current vertex count of the builder.
func (b *Builder) NumVertices() int { return b.n }

// Build assembles the immutable Graph. The builder may be reused afterwards;
// previously added edges are retained.
//
// Construction is a two-pass LSD counting sort over the 2m directed edges
// — first grouped by destination, then stably scattered by source — so
// every adjacency list comes out sorted in one O(n + m) pass, replacing
// the former global comparison sort plus a per-list sort.Slice sweep.
// Duplicates land adjacent within each list and are compacted in place.
func (b *Builder) Build() *Graph {
	n := b.n
	// Pass 1: bucket every directed edge (u→v and v→u) by its
	// destination; byDstSrc[i] is the source of the i-th edge in
	// destination order.
	cnt := make([]int32, n+1)
	for _, p := range b.pairs {
		cnt[p[0]+1]++
		cnt[p[1]+1]++
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	byDstSrc := make([]int32, 2*len(b.pairs))
	pos := make([]int32, n)
	copy(pos, cnt[:n])
	for _, p := range b.pairs {
		byDstSrc[pos[p[1]]] = p[0]
		pos[p[1]]++
		byDstSrc[pos[p[0]]] = p[1]
		pos[p[0]]++
	}

	// Pass 2: scatter by source while walking destinations in ascending
	// order — each adjacency list fills with ascending neighbor ids. The
	// source degrees equal the destination counts (the edge set is
	// symmetric), so cnt doubles as the offset table.
	offsets := make([]int32, n+1)
	copy(offsets, cnt)
	edges := make([]int32, 2*len(b.pairs))
	copy(pos, offsets[:n])
	for w := 0; w < n; w++ {
		for i := cnt[w]; i < cnt[w+1]; i++ {
			u := byDstSrc[i]
			edges[pos[u]] = int32(w)
			pos[u]++
		}
	}

	// Compact duplicate edges in place (they are adjacent within each
	// sorted list; self-loops were dropped at AddEdge).
	out := int32(0)
	for v := 0; v < n; v++ {
		start, end := offsets[v], offsets[v+1]
		offsets[v] = out
		for i := start; i < end; i++ {
			if i > start && edges[i] == edges[i-1] {
				continue
			}
			edges[out] = edges[i]
			out++
		}
	}
	offsets[n] = out
	return &Graph{offsets: offsets, edges: edges[:out]}
}

// Splice returns a new graph equal to g with the given undirected edges
// inserted and deleted, and the vertex count grown to n (vertex counts
// never shrink: n below g's count is ignored). It runs in O(n + m +
// b log b) for batch size b — one linear merge pass over the CSR arrays
// instead of a full rebuild — which is what makes single-edge maintenance
// batches cheap on large graphs. g itself is unchanged.
//
// Preconditions (the incremental maintainer's batch validation
// establishes them): every pair is normalized with u < v and u != v, no
// pair occurs twice across both lists, inserted edges are absent from g
// and deleted edges present. Violations produce a structurally valid but
// wrong graph, not a panic.
func (g *Graph) Splice(n int, inserts, deletes [][2]int32) *Graph {
	oldN := g.NumVertices()
	if n < oldN {
		n = oldN
	}
	// Scatter the batch into per-endpoint patch lists; only the touched
	// vertices (at most 2b of them) get one.
	ins := make(map[int32][]int32, 2*len(inserts))
	del := make(map[int32][]int32, 2*len(deletes))
	for _, e := range inserts {
		ins[e[0]] = append(ins[e[0]], e[1])
		ins[e[1]] = append(ins[e[1]], e[0])
	}
	for _, e := range deletes {
		del[e[0]] = append(del[e[0]], e[1])
		del[e[1]] = append(del[e[1]], e[0])
	}
	offsets := make([]int32, n+1)
	edges := make([]int32, 0, len(g.edges)+2*(len(inserts)-len(deletes)))
	for v := 0; v < n; v++ {
		var adj []int32
		if v < oldN {
			adj = g.Neighbors(v)
		}
		iv, dv := ins[int32(v)], del[int32(v)]
		if len(iv) == 0 && len(dv) == 0 {
			edges = append(edges, adj...)
		} else {
			sort.Slice(iv, func(a, b int) bool { return iv[a] < iv[b] })
			sort.Slice(dv, func(a, b int) bool { return dv[a] < dv[b] })
			// Merge the sorted old adjacency with the sorted insert
			// targets, dropping the delete targets as they stream past.
			i, d := 0, 0
			for _, w := range adj {
				for i < len(iv) && iv[i] < w {
					edges = append(edges, iv[i])
					i++
				}
				if d < len(dv) && dv[d] == w {
					d++
					continue
				}
				edges = append(edges, w)
			}
			edges = append(edges, iv[i:]...)
		}
		offsets[v+1] = int32(len(edges))
	}
	return &Graph{offsets: offsets, edges: edges}
}

// FromEdges is a convenience constructor: it builds a graph with n vertices
// from the given undirected edge pairs.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
