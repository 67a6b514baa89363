package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/incr"
)

// FuzzDecompose feeds arbitrary edge bytes through every algorithm and
// validates the results against each other and the independent verifier.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(2))
	f.Add([]byte{0, 1, 2, 3}, uint8(1))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, hRaw uint8) {
		h := 1 + int(hRaw%4)
		b := graph.NewBuilder(0)
		for i := 0; i+1 < len(data) && i < 40; i += 2 {
			b.AddEdge(int(data[i]%24), int(data[i+1]%24))
		}
		g := b.Build()
		var ref []int
		for _, alg := range []Algorithm{HBZ, HLB, HLBUB} {
			res, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 1, AllowBaseline: true})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res.Core
				if err := Validate(g, h, ref); err != nil {
					t.Fatalf("h=%d %v: %v", h, alg, err)
				}
				continue
			}
			for v := range ref {
				if res.Core[v] != ref[v] {
					t.Fatalf("h=%d: %v disagrees at vertex %d: %d vs %d", h, alg, v, res.Core[v], ref[v])
				}
			}
		}
	})
}

// FuzzMaintainer drives a Maintainer through an edit stream read from the
// fuzz bytes and compares its indices with a from-scratch decomposition
// after every batch: the safety net for changes to the dirty-region
// closure. graphData holds vertex pairs (ids mod 20); edits holds
// triples (u, v, c) with ids mod 24, so inserts can grow the vertex set.
// Each triple toggles the edge {u,v} — a delete when it is present, an
// insert when not — so every batch is valid. Bit 0 of c closes the batch
// after the edit; when it does, bit 1 runs that batch under a countdown
// context of c>>2 polls, which may cancel it and leave its repair
// pending for the next batch.
func FuzzMaintainer(f *testing.F) {
	// Two 5-cliques joined by a bridge, a 3-vertex path and a 5-cycle.
	var clusters []byte
	for _, off := range []byte{0, 5} {
		for x := off; x < off+5; x++ {
			for y := x + 1; y < off+5; y++ {
				clusters = append(clusters, x, y)
			}
		}
	}
	clusters = append(clusters, 4, 5, 10, 11, 11, 12, 13, 14, 14, 15, 15, 16, 16, 17, 17, 13)
	f.Add(clusters, []byte{0, 6, 1, 1, 2, 0, 3, 12, 1, 5, 9, 0, 9, 10, 1, 2, 21, 1}, uint8(1))
	f.Add(clusters, []byte{0, 6, 0, 4, 8, 1, 4, 5, 3, 12, 14, 1, 1, 7, 23, 2, 8, 1}, uint8(2))
	f.Add(clusters, []byte{4, 11, 13, 12, 16, 1, 4, 11, 1, 0, 1, 0, 6, 7, 1, 3, 18, 1}, uint8(3))
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{0, 4, 1, 1, 3, 0, 2, 22, 1}, uint8(4))
	f.Add([]byte{}, []byte{0, 1, 1, 1, 2, 1, 0, 2, 1}, uint8(2))
	// Closing a path into a triangle: all three vertices rise together.
	f.Add([]byte{0, 2, 2, 14}, []byte{0, 14, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, graphData, edits []byte, hRaw uint8) {
		h := 1 + int(hRaw%4)
		b := graph.NewBuilder(0)
		for i := 0; i+1 < len(graphData) && i < 80; i += 2 {
			b.AddEdge(int(graphData[i]%20), int(graphData[i+1]%20))
		}
		m, err := NewMaintainer(b.Build(), h, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		check := func(label string) {
			t.Helper()
			want, err := Decompose(m.Graph(), Options{H: h, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			decomposeEqual(t, m.Core(), want.Core, label)
		}
		overlay := map[[2]int]bool{}
		var batch []incr.Edit
		for i := 0; i+2 < len(edits) && i < 96; i += 3 {
			u, v, c := int(edits[i]%24), int(edits[i+1]%24), edits[i+2]
			if u > v {
				u, v = v, u
			}
			if u != v {
				present, ok := overlay[[2]int{u, v}]
				if !ok {
					present = v < m.Graph().NumVertices() && m.Graph().HasEdge(u, v)
				}
				op := incr.Insert
				if present {
					op = incr.Delete
				}
				overlay[[2]int{u, v}] = !present
				batch = append(batch, incr.Edit{U: u, V: v, Op: op})
			}
			if c&1 == 0 || len(batch) == 0 {
				continue
			}
			label := fmt.Sprintf("h=%d, after the batch ending at byte %d", h, i)
			ctx := context.Background()
			if c&2 != 0 {
				ctx = newCountdown(int64(c >> 2))
			}
			before := m.Core()
			err := m.ApplyBatch(ctx, batch)
			batch = batch[:0]
			clear(overlay)
			if errors.Is(err, ErrCanceled) {
				decomposeEqual(t, m.Core()[:len(before)], before, label+" (canceled)")
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label)
		}
		if m.Stale() {
			if err := m.Refresh(context.Background()); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("h=%d, after the final refresh", h))
		}
	})
}
