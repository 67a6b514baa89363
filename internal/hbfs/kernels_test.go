package hbfs

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/vset"
)

// refHDegree is a deliberately plain map-based BFS oracle sharing no code
// (not even the vset representation internally) with the kernels under
// test.
func refHDegree(g *graph.Graph, src, h int, alive map[int]bool) int {
	if src < 0 || src >= g.NumVertices() || h < 1 {
		return 0
	}
	if alive != nil && !alive[src] {
		return 0
	}
	return len(refDistances(g, src, h, alive)) - 1
}

// randomCase builds a deterministic pseudo-random graph of 30–99 vertices
// and alive mask from a seed.
func randomCase(seed int64) (g *graph.Graph, alive *vset.Set, aliveMap map[int]bool, h int) {
	return randomCaseMin(seed, 30)
}

// randomCaseMin is randomCase with at least minN (and under minN+70)
// vertices.
func randomCaseMin(seed int64, minN int) (g *graph.Graph, alive *vset.Set, aliveMap map[int]bool, h int) {
	r := seed
	next := func(n int) int {
		r = r*6364136223846793005 + 1442695040888963407
		v := int(r % int64(n))
		if v < 0 {
			v = -v
		}
		return v
	}
	n := minN + next(70)
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(next(n), next(n))
	}
	g = b.Build()
	alive = vset.New(n)
	aliveMap = map[int]bool{}
	for v := 0; v < n; v++ {
		if next(5) > 0 { // ~80% alive
			alive.Add(v)
			aliveMap[v] = true
		}
	}
	h = 1 + next(3) // h ∈ {1, 2, 3}: exercises the h=1 fast path too
	return g, alive, aliveMap, h
}

// TestKernelsAgreeWithOracle cross-checks every kernel — count-only
// HDegree, HDegreeCapped/HDegreeAtLeast with thresholds bracketing the
// true degree, Ball and its shell split, and Visit distances — against the
// independent reference BFS, with and without an alive mask.
func TestKernelsAgreeWithOracle(t *testing.T) {
	check := func(seed int64) bool {
		g, alive, aliveMap, h := randomCase(seed)
		tr := NewTraversal(g)
		for _, masked := range []bool{false, true} {
			var av *vset.Set
			var am map[int]bool
			if masked {
				av, am = alive, aliveMap
			}
			for src := 0; src < g.NumVertices(); src++ {
				want := refHDegree(g, src, h, am)
				if got := tr.HDegree(src, h, av); got != want {
					t.Errorf("seed=%d src=%d h=%d masked=%v: HDegree=%d want %d", seed, src, h, masked, got, want)
					return false
				}
				// Thresholds around the true degree, including the exact
				// boundary on both sides.
				for _, k := range []int{0, 1, want - 1, want, want + 1, want + 7} {
					if got := tr.HDegreeAtLeast(src, h, av, k); got != (want >= k) {
						t.Errorf("seed=%d src=%d h=%d k=%d: HDegreeAtLeast=%v want %v (deg %d)", seed, src, h, k, got, want >= k, want)
						return false
					}
					if k <= 0 {
						continue
					}
					wantCapped := want
					if wantCapped > k {
						wantCapped = k
					}
					if got := tr.HDegreeCapped(src, h, av, k); got != wantCapped {
						t.Errorf("seed=%d src=%d h=%d cap=%d: HDegreeCapped=%d want %d", seed, src, h, k, got, wantCapped)
						return false
					}
				}
				// Ball: member set matches the oracle, the shell split is
				// exactly the distance-h block, and entries are unique.
				verts, shellStart := tr.Ball(src, h, av)
				if len(verts) != want {
					t.Errorf("seed=%d src=%d h=%d: |Ball|=%d want %d", seed, src, h, len(verts), want)
					return false
				}
				seen := map[int32]bool{}
				for i, u := range verts {
					if seen[u] {
						t.Errorf("seed=%d src=%d: Ball repeats vertex %d", seed, src, u)
						return false
					}
					seen[u] = true
					inShell := i >= shellStart
					d := refDistance(g, src, int(u), am)
					if inShell != (d == h) {
						t.Errorf("seed=%d src=%d u=%d: shell membership=%v but d=%d (h=%d)", seed, src, u, inShell, d, h)
						return false
					}
				}
				// Visit distances match the oracle's BFS distances.
				ok := true
				tr.Visit(src, h, av, func(u int32, d int32) {
					if want := refDistance(g, src, int(u), am); want != int(d) {
						ok = false
					}
				})
				if !ok {
					t.Errorf("seed=%d src=%d h=%d: Visit distance mismatch", seed, src, h)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// refDistance returns the alive-restricted BFS distance from src to dst,
// or -1 when unreachable.
func refDistance(g *graph.Graph, src, dst int, alive map[int]bool) int {
	if alive != nil && !alive[src] {
		return -1
	}
	dist := map[int]int{src: 0}
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v == dst {
			return dist[v]
		}
		for _, u := range g.Neighbors(v) {
			if _, ok := dist[int(u)]; ok {
				continue
			}
			if alive != nil && !alive[int(u)] {
				continue
			}
			dist[int(u)] = dist[v] + 1
			queue = append(queue, int(u))
		}
	}
	return -1
}

// refDistances returns the alive-restricted BFS distance of every vertex
// within h of src (src at 0).
func refDistances(g *graph.Graph, src, h int, alive map[int]bool) map[int]int {
	dist := map[int]int{src: 0}
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if dist[v] == h {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if _, ok := dist[int(u)]; ok || (alive != nil && !alive[int(u)]) {
				continue
			}
			dist[int(u)] = dist[v] + 1
			queue = append(queue, int(u))
		}
	}
	return dist
}

// TestBallLevelEnds checks Ball's per-distance block ends against naive
// BFS distances at h = 1..5, with and without an alive mask: ends[d] is
// |B_d(src)| for every distance the ball reached, ends stops at the
// ball's radius, and each block of verts holds exactly the vertices at
// its distance. Before every Ball the traversal runs a radius-5 search
// from another source, so an h = 1 fast-path ball that reported the
// previous search's levels would fail.
func TestBallLevelEnds(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, alive, aliveMap, _ := randomCase(seed)
		tr := NewTraversal(g)
		n := g.NumVertices()
		for _, masked := range []bool{false, true} {
			mask, amap := (*vset.Set)(nil), map[int]bool(nil)
			if masked {
				mask, amap = alive, aliveMap
			}
			for h := 1; h <= 5; h++ {
				for src := 0; src < n; src++ {
					if masked && !aliveMap[src] {
						continue
					}
					tr.Ball((src+1)%n, 5, nil)
					verts, _ := tr.Ball(src, h, mask)
					ends := tr.LevelEnds()
					dist := refDistances(g, src, h, amap)
					radius := 0
					for _, d := range dist {
						radius = max(radius, d)
					}
					if len(ends) != radius+1 || ends[0] != 1 || int(ends[radius])-1 != len(verts) {
						t.Fatalf("seed %d masked=%v h=%d src=%d: ends %v for radius %d and %d verts",
							seed, masked, h, src, ends, radius, len(verts))
					}
					for d := 1; d <= radius; d++ {
						within := 0
						for _, du := range dist {
							if du <= d {
								within++
							}
						}
						if int(ends[d]) != within {
							t.Fatalf("seed %d masked=%v h=%d src=%d: |B_%d| = %d, want %d",
								seed, masked, h, src, d, ends[d], within)
						}
						for _, u := range verts[ends[d-1]-1 : ends[d]-1] {
							if dist[int(u)] != d {
								t.Fatalf("seed %d masked=%v h=%d src=%d: vertex %d in block %d at distance %d",
									seed, masked, h, src, u, d, dist[int(u)])
							}
						}
					}
				}
			}
		}
	}
}

// TestTruncatedVisitAccounting asserts the early-exit kernels charge only
// what they explored: a capped search never counts more visits than the
// full search, and a cap of 1 counts at most the source plus one
// discovery per level... precisely: visits(capped) ≤ visits(full).
func TestTruncatedVisitAccounting(t *testing.T) {
	g, alive, _, _ := randomCase(42)
	tr := NewTraversal(g)
	for src := 0; src < g.NumVertices(); src++ {
		for h := 1; h <= 3; h++ {
			tr.ResetVisits()
			full := tr.HDegree(src, h, alive)
			fullVisits := tr.Visits()
			for _, cap := range []int{1, 2, full, full + 1} {
				if cap <= 0 {
					continue
				}
				tr.ResetVisits()
				tr.HDegreeCapped(src, h, alive, cap)
				if tr.Visits() > fullVisits {
					t.Fatalf("src=%d h=%d cap=%d: truncated visits %d exceed full %d", src, h, cap, tr.Visits(), fullVisits)
				}
				if cap < full && full > 0 && tr.Visits() == 0 {
					t.Fatalf("src=%d h=%d cap=%d: truncated search recorded no visits", src, h, cap)
				}
			}
		}
	}
}

// TestHDegree1FastPath pins the h = 1 fast path: results equal the
// masked adjacency degree and no queue traffic is needed for the nil-mask
// case.
func TestHDegree1FastPath(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {3, 4}})
	tr := NewTraversal(g)
	if got := tr.HDegree(0, 1, nil); got != 3 {
		t.Fatalf("deg¹(0) = %d, want 3", got)
	}
	alive := vset.New(5)
	alive.Fill()
	alive.Remove(2)
	if got := tr.HDegree(0, 1, alive); got != 2 {
		t.Fatalf("masked deg¹(0) = %d, want 2", got)
	}
	if !tr.HDegreeAtLeast(0, 1, alive, 2) || tr.HDegreeAtLeast(0, 1, alive, 3) {
		t.Fatal("h=1 threshold fast path wrong")
	}
	verts, shellStart := tr.Ball(0, 1, alive)
	if len(verts) != 2 || shellStart != 0 {
		t.Fatalf("h=1 Ball = %v/%d, want 2 shell-only vertices", verts, shellStart)
	}
}

// TestPoolCappedMatchesSequential checks the batched threshold kernel
// against per-vertex sequential calls.
func TestPoolCappedMatchesSequential(t *testing.T) {
	check := func(seed int64) bool {
		g, alive, _, h := randomCase(seed)
		n := g.NumVertices()
		pool := NewPool(g, 4)
		defer pool.Close()
		verts := alive.AppendMembers(make([]int32, 0, n))
		for _, cap := range []int{1, 3, 10} {
			par := make([]int32, n)
			evaluated := pool.HDegreesCapped(verts, h, alive, cap, par)
			if evaluated != int64(len(verts)) {
				t.Errorf("seed=%d: evaluated %d of %d live sources", seed, evaluated, len(verts))
				return false
			}
			seq := NewTraversal(g)
			for _, v := range verts {
				if int(par[v]) != seq.HDegreeCapped(int(v), h, alive, cap) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBallsMatchesSequential checks the Balls batch kernel — the
// fan-out behind the level-synchronous parallel Algorithm-5 peel —
// against per-vertex sequential Ball calls: identical members, order and
// shell split (Ball is deterministic given the source, so worker identity
// must not leak into results), with and without an alive mask, through
// both the inline small-batch path (a batch one short of batchMin) and
// the helper fan-out (a batch of at least batchMin vertices whose length
// is not a multiple of batchChunk, so the last claimed chunk is a tail).
func TestPoolBallsMatchesSequential(t *testing.T) {
	check := func(seed int64) bool {
		g, alive, _, h := randomCaseMin(seed, batchMin+1)
		n := g.NumVertices()
		pool := NewPool(g, 4)
		defer pool.Close()
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		fanOut := n
		if fanOut%batchChunk == 0 {
			fanOut--
		}
		for _, masked := range []bool{false, true} {
			var av *vset.Set
			if masked {
				av = alive
			}
			for _, size := range []int{batchMin - 1, fanOut} {
				verts := all[:size]
				got := make([][]int32, n)
				shells := make([]int, n)
				pool.Balls(verts, h, av, func(worker int, v int32, ball []int32, shellStart int) {
					cp := make([]int32, len(ball))
					copy(cp, ball) // ball aliases the worker's scratch: copy before returning
					got[v] = cp
					shells[v] = shellStart
				})
				seq := NewTraversal(g)
				for _, v := range verts {
					want, wantShell := seq.Ball(int(v), h, av)
					if len(got[v]) != len(want) || shells[v] != wantShell {
						t.Errorf("seed=%d v=%d h=%d masked=%v batch=%d: |ball|=%d shell=%d, want %d/%d",
							seed, v, h, masked, size, len(got[v]), shells[v], len(want), wantShell)
						return false
					}
					for i := range want {
						if got[v][i] != want[i] {
							t.Errorf("seed=%d v=%d h=%d: ball[%d]=%d, want %d", seed, v, h, i, got[v][i], want[i])
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBallsEmptyAndClosed pins the degenerate paths: an empty vertex
// list or nil callback is a no-op, and a closed pool still answers on
// worker 0.
func TestPoolBallsEmptyAndClosed(t *testing.T) {
	g := pathGraph(50)
	pool := NewPool(g, 3)
	pool.Balls(nil, 2, nil, func(int, int32, []int32, int) { t.Error("callback ran for empty batch") })
	pool.Balls([]int32{1}, 2, nil, nil) // nil callback: no-op, no panic
	pool.Close()
	hits := 0
	pool.Balls([]int32{1, 2, 3}, 2, nil, func(worker int, v int32, ball []int32, shellStart int) {
		if worker != 0 {
			t.Errorf("closed pool used worker %d", worker)
		}
		hits++
	})
	if hits != 3 {
		t.Fatalf("closed pool evaluated %d of 3 sources", hits)
	}
}

// TestPoolEvaluatedCount checks that dead sources are excluded from the
// evaluated count a batch reports (the Stats.HDegreeComputations fix).
func TestPoolEvaluatedCount(t *testing.T) {
	g := pathGraph(100)
	pool := NewPool(g, 2)
	defer pool.Close()
	alive := vset.New(100)
	for v := 0; v < 50; v++ {
		alive.Add(v)
	}
	verts := make([]int32, 100)
	for v := range verts {
		verts[v] = int32(v)
	}
	out := make([]int32, 100)
	if got := pool.HDegrees(verts, 2, alive, out); got != 50 {
		t.Fatalf("evaluated = %d, want 50 (dead sources must not count)", got)
	}
	for v := 50; v < 100; v++ {
		if out[v] != 0 {
			t.Fatalf("dead vertex %d reported h-degree %d", v, out[v])
		}
	}
}

// TestPersistentPoolResetAndReuse exercises the parked-worker lifecycle
// under the race detector: large batches (which spawn and wake the
// helpers), Reset to differently-sized graphs between batches, and
// repeated reuse of the same pool.
func TestPersistentPoolResetAndReuse(t *testing.T) {
	g1 := pathGraph(300)
	g2 := pathGraph(513)
	pool := NewPool(g1, 4)
	defer pool.Close()
	for round := 0; round < 6; round++ {
		g, n := g1, 300
		if round%2 == 1 {
			g, n = g2, 513
		}
		pool.Reset(g)
		out := pool.HDegreesAll(2, nil)
		if len(out) != n {
			t.Fatalf("round %d: got %d results, want %d", round, len(out), n)
		}
		if out[1] != 3 { // interior-ish vertex of a path: {0} ∪ {2,3}
			t.Fatalf("round %d: deg²(1) = %d, want 3", round, out[1])
		}
	}
	if pool.Visits() == 0 {
		t.Fatal("pool recorded no visits")
	}
}

// TestConcurrentPoolsShareGraph runs several pools (each with persistent
// helpers) over one shared graph concurrently — the immutable-graph /
// read-only-mask contract the parallel batches rely on, checked under
// -race.
func TestConcurrentPoolsShareGraph(t *testing.T) {
	g := pathGraph(400)
	alive := vset.New(400)
	alive.Fill()
	alive.Remove(200)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := NewPool(g, 3)
			defer pool.Close()
			for round := 0; round < 4; round++ {
				out := pool.HDegreesAll(2, alive)
				if out[100] != 4 {
					t.Errorf("deg²(100) = %d, want 4", out[100])
				}
				if out[200] != 0 {
					t.Errorf("dead vertex reported degree %d", out[200])
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolCloseIdempotent ensures Close can be called repeatedly and that
// a closed pool still answers (single-threaded).
func TestPoolCloseIdempotent(t *testing.T) {
	g := pathGraph(200)
	pool := NewPool(g, 4)
	out := pool.HDegreesAll(2, nil) // spawns helpers
	pool.Close()
	pool.Close()
	out2 := pool.HDegreesAll(2, nil) // falls back to worker 0
	for v := range out {
		if out[v] != out2[v] {
			t.Fatalf("closed pool disagrees at %d: %d vs %d", v, out[v], out2[v])
		}
	}
}
