package hbfs

import (
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSampledBallExactWhenUnbudgeted pins the degradation contract: with
// budget ≤ 0, or a budget no frontier exceeds, SampledBall is the exact
// Ball traversal — same member set, estimate equal to the exact h-degree,
// every block weight 1, Truncated false.
func TestSampledBallExactWhenUnbudgeted(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g, alive, _, h := randomCase(seed)
		tr := NewTraversal(g)
		n := g.NumVertices()
		for _, budget := range []int{0, -3, n} {
			for src := 0; src < n; src++ {
				want := tr.HDegree(src, h, alive)
				rng := ForVertex(7, int32(src))
				sb := tr.SampledBall(src, h, alive, budget, &rng)
				if sb.Truncated {
					t.Fatalf("seed %d src %d budget %d: Truncated on an unbudgeted ball", seed, src, budget)
				}
				if int(sb.Estimate) != want || len(sb.Verts) != want {
					t.Fatalf("seed %d src %d budget %d: estimate %.1f (%d verts), want exact %d",
						seed, src, budget, sb.Estimate, len(sb.Verts), want)
				}
				for bi, w := range sb.BlockWeight {
					if w != 1 {
						t.Fatalf("seed %d src %d: block %d weight %v on an exact ball", seed, src, bi, w)
					}
				}
				if got := tr.HDegreeSampled(src, h, alive, budget, 7); got != want {
					t.Fatalf("seed %d src %d: HDegreeSampled=%d, want exact %d", seed, src, got, want)
				}
			}
		}
	}
}

// TestSampledBallMembersAreBallMembers checks that every sampled ball
// member (weights aside) is a member of the exact ball: truncation can
// only drop vertices, never invent them, and block d must hold vertices at
// distance exactly d.
func TestSampledBallMembersAreBallMembers(t *testing.T) {
	g, alive, aliveMap, _ := randomCase(3)
	tr := NewTraversal(g)
	h := 3
	for src := 0; src < g.NumVertices(); src++ {
		rng := ForVertex(11, int32(src))
		sb := tr.SampledBall(src, h, alive, 3, &rng)
		// Copy before the reference BFS (refHDegree shares no scratch, but
		// the next SampledBall call would invalidate the aliased slices).
		verts := append([]int32(nil), sb.Verts...)
		ends := append([]int32(nil), sb.BlockEnd...)
		start := 0
		for bi, end := range ends {
			for _, u := range verts[start:int(end)] {
				d := refDistance(g, src, int(u), aliveMap)
				if d != bi+1 {
					t.Fatalf("src %d: sampled member %d in block %d has true distance %d", src, u, bi+1, d)
				}
			}
			start = int(end)
		}
	}
}

// TestSampledDeterminismAndSeedSensitivity: the estimate is a pure
// function of (graph, h, budget, seed, vertex) — identical on repeated
// calls and on a fresh traversal — while a different seed must actually
// resample (some estimate differs somewhere).
func TestSampledDeterminismAndSeedSensitivity(t *testing.T) {
	g := gen.BarabasiAlbert(800, 4, 21)
	tr := NewTraversal(g)
	tr2 := NewTraversal(g)
	h, budget := 3, 5
	diff := false
	for v := 0; v < g.NumVertices(); v++ {
		a := tr.HDegreeSampled(v, h, nil, budget, 42)
		b := tr.HDegreeSampled(v, h, nil, budget, 42)
		c := tr2.HDegreeSampled(v, h, nil, budget, 42)
		if a != b || a != c {
			t.Fatalf("v %d: same-seed estimates differ: %d %d %d", v, a, b, c)
		}
		if tr.HDegreeSampled(v, h, nil, budget, 43) != a {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seed 43 reproduced every estimate of seed 42 — streams are not seed-sensitive")
	}
}

// TestPoolSampledBitIdenticalAcrossWorkers is the kernel half of the
// approximate mode's determinism contract: Pool.HDegreesSampled must fill
// bit-identical output arrays at any worker count, and match the serial
// single-traversal loop. The 600-vertex batch is past batchMin, so
// multi-worker pools genuinely fan out, and 600 is not a multiple of
// batchChunk, so the last claimed chunk is a tail.
func TestPoolSampledBitIdenticalAcrossWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 31)
	n := g.NumVertices()
	h, budget := 3, 6
	const seed = 1234
	verts := make([]int32, n)
	for v := range verts {
		verts[v] = int32(v)
	}
	want := make([]int32, n)
	tr := NewTraversal(g)
	for v := 0; v < n; v++ {
		want[v] = int32(tr.HDegreeSampled(v, h, nil, budget, seed))
	}
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(g, workers)
		out := make([]int32, n)
		p.HDegreesSampled(verts, h, nil, budget, seed, out)
		for v := range want {
			if out[v] != want[v] {
				t.Fatalf("workers=%d: out[%d]=%d, want %d (serial)", workers, v, out[v], want[v])
			}
		}
		if p.Expansions() <= 0 || p.Truncations() <= 0 {
			t.Fatalf("workers=%d: expansion/truncation counters not populated: %d/%d",
				workers, p.Expansions(), p.Truncations())
		}
		p.Close()
	}
}

// TestSampledStatisticalBound is the calibrated accuracy contract of the
// coverage-inversion estimator. Budgets 17 and 38 are what
// core.SampleBudgetFor derives for (ε=0.3, conf=0.9) and (ε=0.2,
// conf=0.9); over four structurally distinct graph families the relative
// error |est−exact|/exact across all vertices must satisfy
//
//	mean ≤ 2ε   and   q90 ≤ 4ε,
//
// and raising the budget must not make the mean error worse (beyond a
// small resampling slack). The 2×/4× compounding factors cover the
// multi-level error propagation the per-level Hoeffding budget does not
// model; dense overlapping-community graphs are the estimator's measured
// worst case (coverage inversion is flattest near frontier saturation)
// and sit inside these bounds with ~25% margin.
func TestSampledStatisticalBound(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep over four graph families")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(1500, 4, 11)},
		{"er", gen.ErdosRenyi(1500, 6000, 12)},
		{"ws", gen.WattsStrogatz(1500, 6, 0.1, 13)},
		{"comm", gen.Communities(1500, 10, 50, 200, 0.01, 14)},
	}
	budgets := []struct {
		budget int
		eps    float64
	}{
		{17, 0.3}, // SampleBudgetFor(0.3, 0.9)
		{38, 0.2}, // SampleBudgetFor(0.2, 0.9)
	}
	const seed = 99
	for _, gc := range graphs {
		tr := NewTraversal(gc.g)
		n := gc.g.NumVertices()
		for _, h := range []int{2, 3} {
			exact := make([]int, n)
			for v := 0; v < n; v++ {
				exact[v] = tr.HDegree(v, h, nil)
			}
			prevMean := -1.0
			for _, bc := range budgets {
				var rel []float64
				for v := 0; v < n; v++ {
					if exact[v] == 0 {
						continue
					}
					est := tr.HDegreeSampled(v, h, nil, bc.budget, seed)
					r := float64(est-exact[v]) / float64(exact[v])
					if r < 0 {
						r = -r
					}
					rel = append(rel, r)
				}
				sort.Float64s(rel)
				mean := 0.0
				for _, r := range rel {
					mean += r
				}
				mean /= float64(len(rel))
				q90 := rel[int(0.9*float64(len(rel)))]
				if mean > 2*bc.eps {
					t.Errorf("%s h=%d budget=%d: mean relerr %.3f > 2ε=%.2f", gc.name, h, bc.budget, mean, 2*bc.eps)
				}
				if q90 > 4*bc.eps {
					t.Errorf("%s h=%d budget=%d: q90 relerr %.3f > 4ε=%.2f", gc.name, h, bc.budget, q90, 4*bc.eps)
				}
				// Budget monotonicity: budgets are listed largest-ε first, so
				// each step is a strictly larger budget.
				if prevMean >= 0 && mean > prevMean+0.05 {
					t.Errorf("%s h=%d: mean relerr rose from %.3f to %.3f as the budget grew", gc.name, h, prevMean, mean)
				}
				prevMean = mean
			}
		}
	}
}

// TestSampledBallZeroAllocs: after the first call sizes the fresh bitset
// and block scratch, sampled searches must be allocation-free — the same
// steady-state contract as every exact kernel.
func TestSampledBallZeroAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 17)
	tr := NewTraversal(g)
	tr.HDegreeSampled(0, 3, nil, 5, 9) // warm scratch
	allocs := testing.AllocsPerRun(50, func() {
		for v := 0; v < 64; v++ {
			rng := ForVertex(9, int32(v))
			tr.SampledBall(v, 3, nil, 5, &rng)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SampledBall allocates: %.1f allocs/run", allocs)
	}
}
