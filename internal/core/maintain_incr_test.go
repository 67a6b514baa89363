package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incr"
)

// TestIncrDifferentialStreams is the incremental-equivalence property of
// ISSUE 10: random interleaved insert/delete streams, applied through
// ApplyBatch in small batches, must leave the maintainer's indices
// bit-identical to a from-scratch decomposition after every batch —
// across four graph families and h ∈ {1, 2, 3}. The stream mixes batch
// sizes (single edits and multi-edit batches, including insert+delete of
// the same edge within one batch) so both the localized repair and the
// full-run fallback are exercised; Stats.Incr.Localized is tallied to
// prove each path actually ran where it should.
func TestIncrDifferentialStreams(t *testing.T) {
	// Graph sizes scale with h: a dirty region's boundary is a radius-h
	// ball, so on a graph whose diameter is comparable to 2h everything is
	// within the fallback threshold and the localized path could never
	// legitimately run. expectLocal marks the combinations where locality
	// structurally exists and the repair path must demonstrably run; on
	// expander-like families at h ≥ 2 (ER, BA hubs, rewired WS at h=3) a
	// distance-h core is a global object — ball(h) spans a constant
	// fraction of the graph — so honest behavior there is the full-run
	// fallback, which must then demonstrably run, so the warm-seeded
	// fullRedecompose stays exercised and checked for bit-identity.
	type fam struct {
		name        string
		g           *graph.Graph
		steps       int
		expectLocal bool
	}
	families := func(h int) []fam {
		switch h {
		case 1:
			return []fam{
				{"erdos-renyi", gen.ErdosRenyi(70, 140, 7), 30, true},
				{"barabasi-albert", gen.BarabasiAlbert(70, 2, 7), 30, true},
				{"watts-strogatz", gen.WattsStrogatz(70, 4, 0.2, 7), 30, true},
				{"road-grid", gen.RoadGrid(8, 9, 0.1, 0.1, 7), 30, true},
			}
		case 2:
			return []fam{
				{"erdos-renyi", gen.ErdosRenyi(300, 600, 7), 20, false},
				{"barabasi-albert", gen.BarabasiAlbert(300, 2, 7), 20, false},
				{"watts-strogatz", gen.WattsStrogatz(300, 4, 0.2, 7), 20, true},
				{"road-grid", gen.RoadGrid(17, 18, 0.1, 0.1, 7), 20, true},
			}
		default:
			return []fam{
				{"erdos-renyi", gen.ErdosRenyi(700, 1400, 7), 12, false},
				{"barabasi-albert", gen.BarabasiAlbert(700, 2, 7), 12, false},
				{"watts-strogatz", gen.WattsStrogatz(700, 4, 0.2, 7), 12, false},
				{"road-grid", gen.RoadGrid(26, 27, 0.1, 0.1, 7), 12, true},
			}
		}
	}
	for h := 1; h <= 3; h++ {
		for _, f := range families(h) {
			f, h := f, h
			t.Run(fmt.Sprintf("%s/h%d", f.name, h), func(t *testing.T) {
				t.Parallel()
				m, err := NewMaintainer(f.g, h, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				rng := gen.NewRNG(uint64(1000*h) + uint64(len(f.name)))
				localized, fallback := 0, 0
				for step := 0; step < f.steps; step++ {
					batch := randomBatch(t, m, rng, 1+rng.Intn(3))
					if err := m.ApplyBatch(context.Background(), batch); err != nil {
						t.Fatalf("step %d (h=%d): %v", step, h, err)
					}
					if m.LastStats().Incr.Localized {
						localized++
					} else {
						fallback++
					}
					want, err := Decompose(m.Graph(), Options{H: h, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					decomposeEqual(t, m.Core(), want.Core, "after batch")
				}
				if f.expectLocal && localized == 0 {
					t.Errorf("h=%d: no batch took the localized repair path", h)
				}
				if !f.expectLocal && fallback == 0 {
					t.Errorf("h=%d: no batch took the full-run fallback", h)
				}
			})
		}
	}
}

// randomBatch builds a valid batch against the maintainer's current edge
// set: each edit inserts a random absent edge or deletes a random present
// one, tracking the batch's own effects so multi-edit batches stay
// sequentially valid (and occasionally contain insert-then-delete of the
// same pair).
func randomBatch(t *testing.T, m *Maintainer, rng *gen.RNG, size int) []incr.Edit {
	t.Helper()
	g := m.Graph()
	n := g.NumVertices()
	present := func(u, v int) bool { return g.HasEdge(u, v) }
	overlay := map[[2]int]bool{}
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	has := func(u, v int) bool {
		if p, ok := overlay[key(u, v)]; ok {
			return p
		}
		return present(u, v)
	}
	batch := make([]incr.Edit, 0, size)
	for len(batch) < size {
		if rng.Intn(2) == 0 {
			// Delete: sample a present edge by picking a random endpoint
			// and one of its neighbors (sparse graphs make random *pairs*
			// almost never edges, which would starve the delete side).
			u := rng.Intn(n)
			adj := g.Neighbors(u)
			if len(adj) == 0 {
				continue
			}
			v := int(adj[rng.Intn(len(adj))])
			if !has(u, v) {
				continue // already deleted earlier in this batch
			}
			batch = append(batch, incr.Edit{U: u, V: v, Op: incr.Delete})
			overlay[key(u, v)] = false
		} else {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || has(u, v) {
				continue
			}
			batch = append(batch, incr.Edit{U: u, V: v, Op: incr.Insert})
			overlay[key(u, v)] = true
		}
	}
	return batch
}

// TestIncrCancelInvalidatesRegionOnly is the satellite-1 property: a
// canceled repair leaves the published indices exactly as before the
// batch (the partial peel is fully undone — in particular, vertices far
// from the edit are never touched), and the follow-up Refresh restores
// exactness through a *localized* repair of the pending region, not a
// cold full run.
func TestIncrCancelInvalidatesRegionOnly(t *testing.T) {
	// Two disconnected communities: an edit inside the first can never
	// reach the second, so the second's indices must survive any
	// interruption bit-for-bit.
	b := graph.NewBuilder(0)
	blobA := gen.ErdosRenyi(40, 120, 3)
	blobB := gen.ErdosRenyi(40, 120, 4)
	for v := 0; v < 40; v++ {
		for _, u := range blobA.Neighbors(v) {
			if v < int(u) {
				b.AddEdge(v, int(u))
			}
		}
		for _, u := range blobB.Neighbors(v) {
			if v < int(u) {
				b.AddEdge(v+40, int(u)+40)
			}
		}
	}
	g := b.Build()
	m, err := NewMaintainer(g, 1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Core()
	u, v := nonEdge(t, m)
	if u >= 40 || v >= 40 {
		t.Fatalf("expected a non-edge inside the first blob, got {%d,%d}", u, v)
	}

	// Cancel the insert at a range of depths; whichever phase the
	// countdown lands in, the published indices must equal the pre-batch
	// decomposition exactly.
	canceled := false
	for fuel := int64(0); fuel < 40; fuel++ {
		err := m.InsertEdgeCtx(newCountdown(fuel), u, v)
		if err == nil {
			break // the repair outran the countdown: deepest case reached
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("fuel %d: wrong error: %v", fuel, err)
		}
		canceled = true
		if !m.Stale() {
			t.Fatalf("fuel %d: canceled update did not mark stale", fuel)
		}
		decomposeEqual(t, m.Core(), before, "published indices after canceled repair")
		// Undo the committed edge so the next fuel level retries the same
		// transition. The delete's validation treats the pending insert's
		// edge as present; its repair folds the pending region in.
		if err := m.DeleteEdge(u, v); err != nil {
			t.Fatalf("fuel %d: compensating delete: %v", fuel, err)
		}
		decomposeEqual(t, m.Core(), before, "after compensating delete")
		if m.Stale() {
			t.Fatalf("fuel %d: successful delete left the maintainer stale", fuel)
		}
	}
	if !canceled {
		t.Fatal("countdown never canceled the repair")
	}
	// The sweep ends on a successful insert (or fuel exhaustion); make the
	// edge absent again so the final cancel-and-recover pass retries the
	// same transition from a clean state.
	if m.Graph().HasEdge(u, v) {
		if err := m.DeleteEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}

	// Now cancel once mid-peel and recover through Refresh: the repair of
	// the pending region must be localized (region ∪ boundary below the
	// fallback threshold — the blobs guarantee locality) and exact.
	if err := m.InsertEdgeCtx(newCountdown(4), u, v); err != nil {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("wrong error: %v", err)
		}
		if err := m.Refresh(context.Background()); err != nil {
			t.Fatalf("refresh: %v", err)
		}
	}
	if m.Stale() {
		t.Fatal("still stale after refresh")
	}
	st := m.LastStats()
	if !st.Incr.Localized {
		t.Error("pending-region recovery fell back to a full run")
	}
	if st.Incr.RegionSize == 0 || st.Incr.RegionSize >= g.NumVertices()/2 {
		t.Errorf("recovery region size %d not local (n=%d)", st.Incr.RegionSize, g.NumVertices())
	}
	want, err := Decompose(m.Graph(), Options{H: 1})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "after localized recovery")
}

// TestEditIDBounds pins the id range of an edit: vertex ids are int32
// inside the engine, so an id that is negative or above math.MaxInt32 is a
// plain ErrBadEdit and leaves the graph untouched — never wrapped onto
// another vertex. An in-range id past the vertex set names no edge yet.
func TestEditIDBounds(t *testing.T) {
	g := gen.ErdosRenyi(40, 80, 5)
	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a := 0
	b := int(g.Neighbors(a)[0]) // {a, b} is an edge
	cases := []struct {
		name    string
		e       incr.Edit
		inRange bool // judged as an edge (absent) rather than rejected as an id
	}{
		{"negative", incr.Edit{U: -1, V: 3, Op: incr.Insert}, false},
		{"just above int32", incr.Edit{U: 1, V: math.MaxInt32 + 1, Op: incr.Insert}, false},
		{"both above int32", incr.Edit{U: math.MaxInt32 + 1, V: math.MaxInt64, Op: incr.Insert}, false},
		{"insert wrapping to a self-loop", incr.Edit{U: a, V: a + 1<<32, Op: incr.Insert}, false},
		{"delete wrapping onto an edge", incr.Edit{U: a, V: b + 1<<32, Op: incr.Delete}, false},
		{"delete of int32 max", incr.Edit{U: a, V: math.MaxInt32, Op: incr.Delete}, true},
		{"delete past the vertex set", incr.Edit{U: g.NumVertices() + 1, V: g.NumVertices() + 2, Op: incr.Delete}, true},
	}
	n, edges, before := m.Graph().NumVertices(), m.Graph().NumEdges(), m.Core()
	for _, c := range cases {
		err := m.ApplyBatch(context.Background(), []incr.Edit{c.e})
		if !errors.Is(err, ErrBadEdit) || errors.Is(err, ErrNoSuchEdge) != c.inRange || errors.Is(err, ErrEdgeExists) {
			t.Errorf("%s: got %v, want ErrBadEdit (wrapping ErrNoSuchEdge: %v)", c.name, err, c.inRange)
		}
	}
	if m.Graph().NumVertices() != n || m.Graph().NumEdges() != edges {
		t.Fatalf("rejected edits changed the graph: %d vertices %d edges, want %d, %d",
			m.Graph().NumVertices(), m.Graph().NumEdges(), n, edges)
	}
	decomposeEqual(t, m.Core(), before, "after rejected edits")
}

// TestIncrTypedEditErrors pins the satellite-2 sentinels: duplicate
// inserts are ErrEdgeExists, deletes of absent edges ErrNoSuchEdge, and
// both still match ErrBadEdit for existing errors.Is dispatch. A failed
// batch must reject wholesale — no edit of an invalid batch applies.
func TestIncrTypedEditErrors(t *testing.T) {
	g := gen.ErdosRenyi(40, 80, 5)
	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, v := nonEdge(t, m)
	if err := m.InsertEdge(u, v); err != nil {
		t.Fatal(err)
	}
	err = m.InsertEdge(u, v)
	if !errors.Is(err, ErrEdgeExists) || !errors.Is(err, ErrBadEdit) {
		t.Errorf("duplicate insert: got %v, want ErrEdgeExists wrapping ErrBadEdit", err)
	}
	u2, v2 := nonEdge(t, m)
	err = m.DeleteEdge(u2, v2)
	if !errors.Is(err, ErrNoSuchEdge) || !errors.Is(err, ErrBadEdit) {
		t.Errorf("absent delete: got %v, want ErrNoSuchEdge wrapping ErrBadEdit", err)
	}
	if err := m.InsertEdge(3, 3); !errors.Is(err, ErrBadEdit) ||
		errors.Is(err, ErrEdgeExists) || errors.Is(err, ErrNoSuchEdge) {
		t.Errorf("self-loop: got %v, want plain ErrBadEdit", err)
	}

	// All-or-nothing batch: a valid insert followed by an invalid delete
	// must leave the edge set (and decomposition) untouched.
	beforeEdges := m.Graph().NumEdges()
	before := m.Core()
	batch := []incr.Edit{
		{U: u2, V: v2, Op: incr.Insert},
		{U: u2, V: v2, Op: incr.Delete},
		{U: u2, V: v2, Op: incr.Delete}, // second delete of the now-absent pair
	}
	if err := m.ApplyBatch(context.Background(), batch); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("invalid batch: got %v, want ErrNoSuchEdge", err)
	}
	if got := m.Graph().NumEdges(); got != beforeEdges {
		t.Errorf("rejected batch mutated the graph: %d edges, want %d", got, beforeEdges)
	}
	decomposeEqual(t, m.Core(), before, "after rejected batch")

	// The legal insert-then-delete pair is a net no-op batch.
	if err := m.ApplyBatch(context.Background(), batch[:2]); err != nil {
		t.Fatalf("insert+delete pair: %v", err)
	}
	decomposeEqual(t, m.Core(), before, "after no-op batch")
}

// TestIncrBatchCoalescing checks the one-repair-per-batch contract: a
// batch of edits far apart in a grid coalesces into multiple connected
// regions but runs as one repair whose region count matches, while edits
// around one vertex coalesce into a single region.
func TestIncrBatchCoalescing(t *testing.T) {
	g := gen.RoadGrid(12, 12, 0, 0, 1)
	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two deletes in opposite corners of the grid: disjoint dirty regions.
	// (Deletes, because down-closures are provably local on uniform grids,
	// while an insert's rise certificate on a uniform sea is inherently
	// non-local and would legitimately fall back.)
	far := []incr.Edit{
		{U: 0, V: 1, Op: incr.Delete},     // corner (0,0)-(0,1)
		{U: 142, V: 143, Op: incr.Delete}, // corner (11,10)-(11,11)
	}
	if err := m.ApplyBatch(context.Background(), far); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if !st.Incr.Localized {
		t.Fatal("far batch fell back to a full run")
	}
	if st.Incr.Regions != 2 {
		t.Errorf("far batch: %d regions, want 2", st.Incr.Regions)
	}
	if st.Incr.Edits != 2 {
		t.Errorf("far batch: Edits = %d, want 2", st.Incr.Edits)
	}
	want, err := Decompose(m.Graph(), Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "after far batch")

	// Two deletes with overlapping seed balls: one coalesced region.
	near := []incr.Edit{
		{U: 0, V: 12, Op: incr.Delete},
		{U: 1, V: 13, Op: incr.Delete},
	}
	if err := m.ApplyBatch(context.Background(), near); err != nil {
		t.Fatal(err)
	}
	st = m.LastStats()
	if st.Incr.Localized && st.Incr.Regions != 1 {
		t.Errorf("near batch: %d regions, want 1", st.Incr.Regions)
	}
	want, err = Decompose(m.Graph(), Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "after near batch")
}

// TestIncrVertexGrowth checks that a batch inserting edges to brand-new
// vertex ids grows the vertex set and stays exact — the new vertices'
// region membership starts from core index 0.
func TestIncrVertexGrowth(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 2)
	m, err := NewMaintainer(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := []incr.Edit{
		{U: 3, V: 35, Op: incr.Insert},
		{U: 35, V: 36, Op: incr.Insert},
		{U: 36, V: 4, Op: incr.Insert},
	}
	if err := m.ApplyBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if got := m.Graph().NumVertices(); got != 37 {
		t.Fatalf("vertex set did not grow: %d, want 37", got)
	}
	want, err := Decompose(m.Graph(), Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "after growth batch")
}

// twoERBlobs returns two disjoint ER(40, 120) blobs (seeds 3 and 4) on
// vertices 0..39 and 40..79: no edit in one can reach the other.
func twoERBlobs() *graph.Graph {
	b := graph.NewBuilder(0)
	for i, blob := range []*graph.Graph{gen.ErdosRenyi(40, 120, 3), gen.ErdosRenyi(40, 120, 4)} {
		off := 40 * i
		for v := 0; v < 40; v++ {
			for _, u := range blob.Neighbors(v) {
				if v < int(u) {
					b.AddEdge(v+off, int(u)+off)
				}
			}
		}
	}
	return b.Build()
}

// TestIncrLocalityFloor pins how many h = 1 random batches stay
// localized on two sparse graphs where locality exists, checking every
// batch against a from-scratch decomposition. The floors are the counts
// the rise probe's window certificate reaches: a probe that refuses less
// (deleting the eviction fixpoint, say, or shrinking the window) recruits
// whole blobs and pushes these streams into full-run fallbacks.
func TestIncrLocalityFloor(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		floor int
	}{
		{"two-er-blobs", twoERBlobs(), 31},
		{"erdos-renyi", gen.ErdosRenyi(70, 140, 7), 37},
	}
	const batches = 40
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMaintainer(c.g, 1, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			rng := gen.NewRNG(5)
			localized := 0
			for i := 0; i < batches; i++ {
				batch := randomBatch(t, m, rng, 1+rng.Intn(3))
				if err := m.ApplyBatch(context.Background(), batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if m.LastStats().Incr.Localized {
					localized++
				}
				want, err := Decompose(m.Graph(), Options{H: 1, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				decomposeEqual(t, m.Core(), want.Core, fmt.Sprintf("after batch %d", i))
			}
			t.Logf("%d of %d batches localized", localized, batches)
			if localized < c.floor {
				t.Errorf("%d of %d batches localized, want at least %d", localized, batches, c.floor)
			}
		})
	}
}
