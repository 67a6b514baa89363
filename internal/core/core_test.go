package core

import (
	"fmt"
	"testing"

	"repro/internal/classic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testCorpus returns a diverse set of small graphs exercising every
// topology class the algorithms must handle.
func testCorpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":      graph.NewBuilder(0).Build(),
		"singleton":  graph.NewBuilder(1).Build(),
		"isolated5":  graph.NewBuilder(5).Build(),
		"edge":       graph.FromEdges(2, [][2]int{{0, 1}}),
		"path10":     gen.Path(10),
		"cycle12":    gen.Cycle(12),
		"star20":     gen.Star(20),
		"clique8":    gen.Clique(8),
		"tree40":     gen.RandomTree(40, 7),
		"er60":       gen.ErdosRenyi(60, 120, 11),
		"er-sparse":  gen.ErdosRenyi(80, 70, 13),
		"ba50":       gen.BarabasiAlbert(50, 3, 17),
		"ws48":       gen.WattsStrogatz(48, 4, 0.2, 19),
		"grid7x8":    gen.RoadGrid(7, 8, 0.1, 0.05, 23),
		"comm70":     gen.Communities(70, 12, 4, 9, 0.3, 29),
		"twoCliques": twoCliquesBridge(6),
		"disconnect": disconnected(),
		"multiAndSelf": func() *graph.Graph {
			b := graph.NewBuilder(4)
			b.AddEdge(0, 1)
			b.AddEdge(0, 1) // duplicate
			b.AddEdge(1, 1) // self-loop
			b.AddEdge(1, 2)
			b.AddEdge(2, 3)
			return b.Build()
		}(),
	}
}

// twoCliquesBridge joins two K_m cliques through a middle vertex.
func twoCliquesBridge(m int) *graph.Graph {
	b := graph.NewBuilder(2*m + 1)
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			b.AddEdge(u, v)
			b.AddEdge(m+u, m+v)
		}
	}
	w := 2 * m
	b.AddEdge(0, w)
	b.AddEdge(m, w)
	return b.Build()
}

// disconnected builds three separate components of different density.
func disconnected() *graph.Graph {
	b := graph.NewBuilder(20)
	// K5 on 0..4
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	// path on 5..12
	for v := 5; v < 12; v++ {
		b.AddEdge(v, v+1)
	}
	// cycle on 13..19
	for v := 13; v < 19; v++ {
		b.AddEdge(v, v+1)
	}
	b.AddEdge(19, 13)
	return b.Build()
}

func equalCores(t *testing.T, what string, got *Result, want []int) {
	t.Helper()
	if len(got.Core) != len(want) {
		t.Fatalf("%s: got %d cores, want %d", what, len(got.Core), len(want))
	}
	for v := range want {
		if got.Core[v] != want[v] {
			t.Fatalf("%s: vertex %d: core %d, want %d\n got: %v\nwant: %v",
				what, v, got.Core[v], want[v], got.Core, want)
		}
	}
}

// TestAlgorithmsAgreeWithNaive checks h-BZ, h-LB and h-LB+UB against the
// naive fixpoint reference for every corpus graph and h in 1..5.
func TestAlgorithmsAgreeWithNaive(t *testing.T) {
	for name, g := range testCorpus() {
		for h := 1; h <= 5; h++ {
			want := NaiveDecompose(g, h)
			for _, alg := range []Algorithm{HBZ, HLB, HLBUB} {
				res, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 1, AllowBaseline: true})
				if err != nil {
					t.Fatalf("%s h=%d %v: %v", name, h, alg, err)
				}
				equalCores(t, fmt.Sprintf("%s h=%d %v", name, h, alg), res, want)
			}
		}
	}
}

// TestHLBUBPartitionSizes checks Algorithm 4 for several partition widths S.
func TestHLBUBPartitionSizes(t *testing.T) {
	for name, g := range testCorpus() {
		for h := 1; h <= 4; h++ {
			want := NaiveDecompose(g, h)
			for _, s := range []int{1, 2, 3, 7, 1000} {
				res, err := Decompose(g, Options{H: h, Algorithm: HLBUB, PartitionSize: s, Workers: 1})
				if err != nil {
					t.Fatalf("%s h=%d S=%d: %v", name, h, s, err)
				}
				equalCores(t, fmt.Sprintf("%s h=%d S=%d", name, h, s), res, want)
			}
		}
	}
}

// TestParallelWorkersMatchSequential checks that worker count never changes
// the result. For h-BZ and h-LB the peeling is identical under any worker
// count, so the visit counts must also match exactly. Parallel h-LB+UB
// runs a different (interval-independent) schedule than the serial carry
// path, so its visits differ from the serial run's; but its interval
// solvers share no mutable state, so a parallel rerun must repeat them
// exactly whatever the timing.
func TestParallelWorkersMatchSequential(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(150, 3, 99)
	for h := 2; h <= 3; h++ {
		for _, alg := range []Algorithm{HBZ, HLB, HLBUB} {
			seq, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 1, AllowBaseline: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 4, AllowBaseline: true})
			if err != nil {
				t.Fatal(err)
			}
			equalCores(t, fmt.Sprintf("h=%d %v parallel", h, alg), par, seq.Core)
			par2, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 4, AllowBaseline: true})
			if err != nil {
				t.Fatal(err)
			}
			equalCores(t, fmt.Sprintf("h=%d %v parallel rerun", h, alg), par2, seq.Core)
			if par.Stats.Visits == 0 || par2.Stats.Visits == 0 {
				t.Errorf("h=%d %v: parallel run recorded no visits", h, alg)
			}
			if alg != HLBUB && par.Stats.Visits != seq.Stats.Visits {
				t.Errorf("h=%d %v: visits differ: seq=%d par=%d", h, alg, seq.Stats.Visits, par.Stats.Visits)
			}
			if par2.Stats.Visits != par.Stats.Visits {
				t.Errorf("h=%d %v: parallel visits nondeterministic: %d vs %d",
					h, alg, par.Stats.Visits, par2.Stats.Visits)
			}
		}
	}
}

// TestHEquals1MatchesClassic cross-checks the generalized algorithms at
// h = 1 against the independent linear-time classic implementation.
func TestHEquals1MatchesClassic(t *testing.T) {
	for name, g := range testCorpus() {
		want := classic.Core(g)
		for _, alg := range []Algorithm{HBZ, HLB, HLBUB} {
			res, err := Decompose(g, Options{H: 1, Algorithm: alg, Workers: 1, AllowBaseline: true})
			if err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			equalCores(t, fmt.Sprintf("%s %v h=1 vs classic", name, alg), res, want)
		}
	}
}

// TestValidateAcceptsCorrectAndRejectsWrong exercises the independent
// verifier in both directions.
func TestValidateAcceptsCorrectAndRejectsWrong(t *testing.T) {
	g := gen.ErdosRenyi(40, 90, 5)
	for h := 1; h <= 3; h++ {
		core := NaiveDecompose(g, h)
		if err := Validate(g, h, core); err != nil {
			t.Fatalf("h=%d: verifier rejected correct decomposition: %v", h, err)
		}
		// Inflate one vertex: breaks validity.
		bad := append([]int(nil), core...)
		bad[0] = bad[0] + 3
		if err := Validate(g, h, bad); err == nil {
			t.Fatalf("h=%d: verifier accepted inflated core index", h)
		}
		// Deflate the max-core vertices: breaks maximality.
		bad2 := append([]int(nil), core...)
		max := 0
		for _, c := range core {
			if c > max {
				max = c
			}
		}
		for v, c := range core {
			if c == max {
				bad2[v] = c - 1
			}
		}
		if max > 0 {
			if err := Validate(g, h, bad2); err == nil {
				t.Fatalf("h=%d: verifier accepted deflated core indices", h)
			}
		}
	}
	if err := Validate(g, 2, []int{1, 2, 3}); err == nil {
		t.Fatal("verifier accepted wrong-length core slice")
	}
	if err := Validate(g, 2, make([]int, g.NumVertices())); err != nil {
		// all-zero is wrong for this graph, but must be rejected by
		// maximality, not accepted
		_ = err
	} else {
		t.Fatal("verifier accepted all-zero cores for a non-trivial graph")
	}
}

// TestContainmentProperty checks Property 2: C_{k+1} ⊆ C_k, automatic from
// the index representation, plus the derived helpers.
func TestContainmentProperty(t *testing.T) {
	g := gen.Communities(60, 10, 4, 8, 0.2, 3)
	res, err := Decompose(g, Options{H: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.CoreSizes()
	if sizes[0] != g.NumVertices() {
		t.Fatalf("|C_0| = %d, want %d", sizes[0], g.NumVertices())
	}
	for k := 1; k < len(sizes); k++ {
		if sizes[k] > sizes[k-1] {
			t.Fatalf("containment violated: |C_%d|=%d > |C_%d|=%d", k, sizes[k], k-1, sizes[k-1])
		}
	}
	if sizes[len(sizes)-1] == 0 {
		t.Fatal("topmost core is empty")
	}
	hist := res.Histogram()
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != g.NumVertices() {
		t.Fatalf("histogram sums to %d, want %d", total, g.NumVertices())
	}
	top := res.CoreVertices(res.MaxCoreIndex())
	if len(top) != sizes[res.MaxCoreIndex()] {
		t.Fatalf("CoreVertices(max) = %d vertices, want %d", len(top), sizes[res.MaxCoreIndex()])
	}
}

// TestBoundsSandwich checks LB1 ≤ LB2 ≤ core ≤ UB ≤ deg^h for every vertex
// (Observations 1–2, Algorithm 5), and that UB equals the classic core
// index of the power graph G^h.
func TestBoundsSandwich(t *testing.T) {
	for name, g := range testCorpus() {
		if g.NumVertices() == 0 {
			continue
		}
		for h := 2; h <= 4; h++ {
			lb1, lb2 := LowerBounds(g, h, 1)
			ub := UpperBounds(g, h, 1)
			degH := HDegrees(g, h, 1)
			core := NaiveDecompose(g, h)
			powerCore := classic.Core(g.Power(h))
			for v := range core {
				if int(lb1[v]) > int(lb2[v]) {
					t.Fatalf("%s h=%d v=%d: LB1=%d > LB2=%d", name, h, v, lb1[v], lb2[v])
				}
				if int(lb2[v]) > core[v] {
					t.Fatalf("%s h=%d v=%d: LB2=%d > core=%d", name, h, v, lb2[v], core[v])
				}
				if core[v] > int(ub[v]) {
					t.Fatalf("%s h=%d v=%d: core=%d > UB=%d", name, h, v, core[v], ub[v])
				}
				if int(ub[v]) > int(degH[v]) {
					t.Fatalf("%s h=%d v=%d: UB=%d > deg^h=%d", name, h, v, ub[v], degH[v])
				}
				if int(ub[v]) != powerCore[v] {
					t.Fatalf("%s h=%d v=%d: UB=%d != classic core of G^h=%d", name, h, v, ub[v], powerCore[v])
				}
			}
		}
	}
}

// TestStatsAccounting checks that the efficiency counters behave as the
// paper reports: h-LB performs dramatically fewer h-degree computations
// than h-BZ on a dense graph, and all algorithms count visits.
func TestStatsAccounting(t *testing.T) {
	g := gen.Communities(150, 25, 5, 10, 0.3, 41)
	h := 2
	res := map[Algorithm]*Result{}
	for _, alg := range []Algorithm{HBZ, HLB, HLBUB} {
		r, err := Decompose(g, Options{H: h, Algorithm: alg, Workers: 1, AllowBaseline: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Visits == 0 {
			t.Fatalf("%v: zero visits recorded", alg)
		}
		if r.Stats.HDegreeComputations == 0 {
			t.Fatalf("%v: zero h-degree computations recorded", alg)
		}
		res[alg] = r
	}
	if res[HLB].Stats.HDegreeComputations >= res[HBZ].Stats.HDegreeComputations {
		t.Errorf("h-LB did not reduce h-degree computations: h-LB=%d h-BZ=%d",
			res[HLB].Stats.HDegreeComputations, res[HBZ].Stats.HDegreeComputations)
	}
	if res[HLB].Stats.Visits >= res[HBZ].Stats.Visits {
		t.Errorf("h-LB did not reduce visits: h-LB=%d h-BZ=%d",
			res[HLB].Stats.Visits, res[HBZ].Stats.Visits)
	}
	if res[HLBUB].Stats.Partitions == 0 {
		t.Errorf("h-LB+UB reported zero partitions")
	}
}

// TestOptionsValidation covers the error paths of Decompose.
func TestOptionsValidation(t *testing.T) {
	g := gen.Path(3)
	if _, err := Decompose(nil, Options{H: 2}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Decompose(g, Options{H: -1}); err == nil {
		t.Fatal("negative h accepted")
	}
	if _, err := Decompose(g, Options{H: 2, Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// H defaulting: zero value of H selects 2.
	r, err := Decompose(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.H != 2 {
		t.Fatalf("default H = %d, want 2", r.H)
	}
}

// TestAblationVariantsCorrect checks that the Table 5 ablation options
// still produce correct decompositions.
func TestAblationVariantsCorrect(t *testing.T) {
	g := gen.ErdosRenyi(70, 160, 21)
	for h := 2; h <= 4; h++ {
		want := NaiveDecompose(g, h)
		r1, err := Decompose(g, Options{H: h, Algorithm: HLB, LowerBound: LB1Bound, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		equalCores(t, fmt.Sprintf("h=%d LB1-only", h), r1, want)
		r2, err := Decompose(g, Options{H: h, Algorithm: HLBUB, UpperBound: HDegreeUB, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		equalCores(t, fmt.Sprintf("h=%d hdeg-UB", h), r2, want)
	}
}

// TestAlgorithmString covers the Stringer.
func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{HBZ: "h-BZ", HLB: "h-LB", HLBUB: "h-LB+UB", Algorithm(9): "Algorithm(9)"}
	for alg, want := range cases {
		if alg.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(alg), alg.String(), want)
		}
	}
}
