package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incr"
)

// cavemanBlocks builds nBlocks disjoint dense blocks of 25–40 vertices
// (cliques with about 30% of their edges dropped) joined into one
// component by a ring of single bridge edges, and returns the graph with
// each vertex's block. At h = 2 an intra-block edit's dirty region stays
// inside its block, so the localized repair does the work.
func cavemanBlocks(nBlocks int, seed uint64) (*graph.Graph, []int32) {
	r := gen.NewRNG(seed)
	b := graph.NewBuilder(0)
	starts := []int{0}
	var block []int32
	for i := 0; i < nBlocks; i++ {
		v := starts[i]
		size := 25 + r.Intn(16)
		for x := v; x < v+size; x++ {
			block = append(block, int32(i))
			for y := x + 1; y < v+size; y++ {
				if r.Float64() >= 0.3 {
					b.AddEdge(x, y)
				}
			}
		}
		starts = append(starts, v+size)
	}
	for i := 0; i < nBlocks; i++ {
		j := (i + 1) % nBlocks
		b.AddEdge(starts[i]+r.Intn(starts[i+1]-starts[i]), starts[j]+r.Intn(starts[j+1]-starts[j]))
	}
	return b.Build(), block
}

// cavemanStream draws a seeded stream of intra-block edits over g: single
// deletes, single inserts and four-edit mixed batches. Every pair is
// edited at most once, so each edit is valid when its batch applies.
func cavemanStream(g *graph.Graph, block []int32, seed uint64, batches int) [][]incr.Edit {
	r := gen.NewRNG(seed)
	n := g.NumVertices()
	used := map[[2]int]bool{}
	pick := func(op incr.Op) incr.Edit {
		for {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || block[u] != block[v] || g.HasEdge(u, v) != (op == incr.Delete) {
				continue
			}
			k := [2]int{min(u, v), max(u, v)}
			if used[k] {
				continue
			}
			used[k] = true
			return incr.Edit{U: k[0], V: k[1], Op: op}
		}
	}
	stream := make([][]incr.Edit, batches)
	for i := range stream {
		switch i % 3 {
		case 0:
			stream[i] = []incr.Edit{pick(incr.Delete)}
		case 1:
			stream[i] = []incr.Edit{pick(incr.Insert)}
		default:
			stream[i] = []incr.Edit{pick(incr.Delete), pick(incr.Insert), pick(incr.Delete), pick(incr.Insert)}
		}
	}
	return stream
}

// TestRepairCounterGolden pins the deterministic work of the 1-worker
// Maintainer's localized repair over a fixed caveman edit stream at
// h = 2: the repair peel's visits, h-degree computations and decrements,
// and the dirty regions' vertex and boundary counts, each summed over the
// stream. Every batch must take the localized path, and the maintained
// indices must equal a from-scratch decomposition at the end. The repair
// counts only the h-degrees the maintainer's cache lacks, so the visits
// and h-degree computations are those of the seeds the closure did not
// count plus the peel's. A change that moves these numbers on purpose
// updates them here, with the before and after recorded in CHANGES.md.
func TestRepairCounterGolden(t *testing.T) {
	const (
		visits     = 208318
		hdegs      = 3806
		decrements = 13568
		region     = 2269
		boundary   = 2603
	)
	g, block := cavemanBlocks(40, 3)
	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var gotVisits, gotHdegs, gotDecs int64
	var gotRegion, gotBoundary int
	for i, batch := range cavemanStream(g, block, 11, 30) {
		if err := m.ApplyBatch(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		st := m.LastStats()
		if !st.Incr.Localized {
			t.Fatalf("batch %d: the repair fell back to a full run", i)
		}
		gotVisits += st.Visits
		gotHdegs += st.HDegreeComputations
		gotDecs += st.Decrements
		gotRegion += st.Incr.RegionSize
		gotBoundary += st.Incr.BoundarySize
	}
	want, err := Decompose(m.Graph(), Options{H: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "after the stream")
	if gotVisits != visits || gotHdegs != hdegs || gotDecs != decrements || gotRegion != region || gotBoundary != boundary {
		t.Errorf("visits %d, h-degree computations %d, decrements %d, region %d, boundary %d; want %d, %d, %d, %d, %d",
			gotVisits, gotHdegs, gotDecs, gotRegion, gotBoundary, visits, hdegs, decrements, region, boundary)
	}
}
