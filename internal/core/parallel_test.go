package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// forceParallel opens the engine's schedule decision regardless of the
// host's GOMAXPROCS — the interval fan-out AND the level-synchronous
// Algorithm-5 peel — for every multi-worker engine the test builds
// afterwards, so these tests exercise the real machinery even on a
// single-core machine, where the engine would otherwise — correctly —
// take the serial paths.
func forceParallel(t *testing.T) {
	t.Helper()
	old := forceParallelSchedule
	forceParallelSchedule = true
	t.Cleanup(func() { forceParallelSchedule = old })
}

// TestParallelUpperBoundBitIdentical is the level-synchronous Algorithm-5
// guarantee: for randomized graphs, every h in 1..3 and several worker
// counts, the round-based parallel peel must produce upper bounds
// bit-identical to the serial peel — the peel is exact (it IS the core
// decomposition of G^h), so this is equality of algorithms, not of
// approximations. Run under -race in CI, it also checks the fan-out's
// queue-probe/atomic-decrement discipline.
func TestParallelUpperBoundBitIdentical(t *testing.T) {
	forceParallel(t) // UpperBounds runs only Algorithm 5, so no intervals fan out
	check := func(seed int64) bool {
		g := randGraph(seed, 60, 3)
		for h := 1; h <= 3; h++ {
			want := UpperBounds(g, h, 1) // single-worker engine: serial peel
			for _, workers := range []int{2, 3, 8} {
				got := UpperBounds(g, h, workers)
				if len(got) != len(want) {
					t.Logf("seed %d h=%d workers=%d: %d bounds, want %d", seed, h, workers, len(got), len(want))
					return false
				}
				for v := range want {
					if got[v] != want[v] {
						t.Logf("seed %d h=%d workers=%d: vertex %d: parallel UB %d, serial %d",
							seed, h, workers, v, got[v], want[v])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelHLBUBEquivalenceProperty is the parallel-vs-sequential
// equivalence guarantee: for randomized graphs, every h in 1..3 and every
// worker count, the concurrent interval solvers must produce core indices
// bit-identical to the single-worker serial path (which itself is checked
// against the independent verifier). Run under -race in CI, this also
// exercises the solver-arena isolation: any shared mutable state between
// two interval solvers shows up as a detected race.
func TestParallelHLBUBEquivalenceProperty(t *testing.T) {
	forceParallel(t)
	check := func(seed int64) bool {
		g := randGraph(seed, 60, 3)
		for h := 1; h <= 3; h++ {
			var want []int
			for _, workers := range []int{1, 2, 8} {
				res, err := Decompose(g, Options{H: h, Algorithm: HLBUB, Workers: workers})
				if err != nil {
					t.Logf("seed %d h=%d workers=%d: %v", seed, h, workers, err)
					return false
				}
				if workers == 1 {
					want = res.Core
					if err := Validate(g, h, want); err != nil {
						t.Logf("seed %d h=%d: sequential result invalid: %v", seed, h, err)
						return false
					}
					continue
				}
				for v := range want {
					if res.Core[v] != want[v] {
						t.Logf("seed %d h=%d workers=%d: vertex %d: parallel core %d, sequential %d",
							seed, h, workers, v, res.Core[v], want[v])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelHLBUBEngineReuse reruns parallel decompositions through one
// multi-worker engine across changing h and partition widths, interleaved
// with sequential algorithms, so stale per-solver arena state from a
// previous run would surface as drift.
func TestParallelHLBUBEngineReuse(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(300, 4, 5)
	eng := NewEngine(g, 4)
	defer eng.Close()
	for round := 0; round < 3; round++ {
		for h := 1; h <= 3; h++ {
			for _, ps := range []int{0, 1, 5} {
				opts := Options{H: h, Algorithm: HLBUB, PartitionSize: ps}
				want, err := Decompose(g, Options{H: h, Algorithm: HLBUB, PartitionSize: ps, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Decompose(opts)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want.Core {
					if got.Core[v] != want.Core[v] {
						t.Fatalf("round %d h=%d S=%d vertex %d: engine %d, want %d",
							round, h, ps, v, got.Core[v], want.Core[v])
					}
				}
			}
			// Interleave a sequential algorithm through the same engine: it
			// shares solver 0 with the parallel path.
			if _, err := eng.Decompose(Options{H: h, Algorithm: HLB}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestParallelSolverArenaZeroAllocs pins the steady-state allocation rate
// of the parallel h-LB+UB path to zero: after a warm-up run has sized
// every per-worker solver arena, repeated DecomposeInto calls through a
// multi-worker engine must not allocate — the interval work queue, the
// solver arenas and the Pool.Run fan-out are all reused.
func TestParallelSolverArenaZeroAllocs(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(400, 3, 41)
	for _, workers := range []int{2, 4} {
		eng := NewEngine(g, workers)
		opts := Options{H: 2, Algorithm: HLBUB}
		var res Result
		if err := eng.DecomposeInto(&res, opts); err != nil { // warm-up sizes all arenas
			eng.Close()
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := eng.DecomposeInto(&res, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("workers=%d: warm parallel engine allocates %.1f objects/op, want 0", workers, allocs)
		}
		eng.Close()
	}
}

// TestBaselineGate pins the h-BZ serving-path gate: selecting the baseline
// without the explicit opt-in is an error, with it the run succeeds, and
// the error names the remedy.
func TestBaselineGate(t *testing.T) {
	g := gen.Path(6)
	if _, err := Decompose(g, Options{H: 2, Algorithm: HBZ}); err == nil {
		t.Fatal("h-BZ ran without AllowBaseline")
	} else if want := "AllowBaseline"; !strings.Contains(err.Error(), want) {
		t.Fatalf("gate error %q does not mention %q", err, want)
	}
	res, err := Decompose(g, Options{H: 2, Algorithm: HBZ, AllowBaseline: true})
	if err != nil {
		t.Fatalf("h-BZ with AllowBaseline: %v", err)
	}
	if err := Validate(g, 2, res.Core); err != nil {
		t.Fatal(err)
	}
	// The default (zero-value) algorithm is HLBUB, not the baseline.
	if Algorithm(0) != HLBUB {
		t.Fatal("zero-value Algorithm is not HLBUB")
	}
}

// TestAdaptivePartitionPlanBalancesMass checks the UB-histogram planner:
// on a skewed graph the adaptive split must cover the full value range
// with contiguous intervals, and no interval may carry more than double an
// equal share of the vertex mass plus one value's worth (a single distinct
// value is indivisible).
func TestAdaptivePartitionPlanBalancesMass(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 77)
	e := NewEngine(g, 4)
	defer e.Close()
	e.beginRun(Options{H: 2}.withDefaults())
	n := g.NumVertices()
	e.degH = growInt32(e.degH, n)
	e.pool.HDegrees(e.allVerts(), 2, e.alive0(), e.degH)
	lb2 := e.lb2Into(e.lb1Into())
	ub := e.upperBoundsInto(e.degH)
	e.planIntervals(ub, lb2, 4)
	if len(e.intervals) < 2 {
		t.Fatalf("adaptive plan produced %d intervals", len(e.intervals))
	}
	// Contiguity and top-down coverage.
	maxUB := int32(0)
	for _, u := range ub {
		if u > maxUB {
			maxUB = u
		}
	}
	if e.intervals[0].kmax != int(maxUB) {
		t.Fatalf("top interval kmax = %d, want max UB %d", e.intervals[0].kmax, maxUB)
	}
	for i := 1; i < len(e.intervals); i++ {
		if e.intervals[i].kmax != e.intervals[i-1].kmin-1 {
			t.Fatalf("intervals %d and %d not contiguous: %+v %+v",
				i-1, i, e.intervals[i-1], e.intervals[i])
		}
	}
	// Mass balance: count vertices whose UB falls inside each interval.
	share := n / len(e.intervals)
	for i, iv := range e.intervals {
		mass := 0
		biggestVal := 0
		valCnt := map[int]int{}
		for _, u := range ub {
			if int(u) >= iv.kmin && int(u) <= iv.kmax {
				mass++
				valCnt[int(u)]++
			}
		}
		for _, c := range valCnt {
			if c > biggestVal {
				biggestVal = c
			}
		}
		if mass > 2*share+biggestVal {
			t.Errorf("interval %d [%d,%d] carries %d vertices (share %d, biggest value %d): unbalanced",
				i, iv.kmin, iv.kmax, mass, share, biggestVal)
		}
	}
}

// TestAdaptivePlanTopIntervalSpansTwoValues checks the planner's top
// interval: when the largest upper bound alone outweighs an equal share of
// the vertex mass, the adaptive plan still gives the top interval at least
// two distinct values, while the paper's fixed width S = 1 keeps it alone.
// A single distinct value makes a one-value plan under both.
func TestAdaptivePlanTopIntervalSpansTwoValues(t *testing.T) {
	// 100 vertices at UB 10, then five at each of 9..1; LB2 = 1 puts the
	// sentinel at 0. The top value carries 100 of 145 vertices, far past
	// the 145/8 share.
	var ub []int32
	for i := 0; i < 100; i++ {
		ub = append(ub, 10)
	}
	for v := int32(9); v >= 1; v-- {
		for i := 0; i < 5; i++ {
			ub = append(ub, v)
		}
	}
	lb2 := make([]int32, len(ub))
	for i := range lb2 {
		lb2[i] = 1
	}
	plan := func(ub, lb2 []int32, size int) []interval {
		var e Engine
		e.opts.PartitionSize = size
		e.planIntervals(ub, lb2, 1)
		// Contiguous, top-down, covering every value down to min LB2.
		lo, hi := int(slices.Min(lb2)), int(slices.Max(ub))
		if e.intervals[0].kmax != hi || e.intervals[len(e.intervals)-1].kmin != lo {
			t.Fatalf("S=%d: plan %v does not cover [%d, %d]", size, e.intervals, lo, hi)
		}
		for i := 1; i < len(e.intervals); i++ {
			if e.intervals[i].kmax != e.intervals[i-1].kmin-1 {
				t.Fatalf("S=%d: plan %v is not contiguous", size, e.intervals)
			}
		}
		return e.intervals
	}
	if top := plan(ub, lb2, 0)[0]; top.kmin > 9 {
		t.Errorf("adaptive top interval %+v spans one value", top)
	}
	if top := plan(ub, lb2, 1)[0]; top != (interval{kmin: 10, kmax: 10}) {
		t.Errorf("S=1 top interval %+v, want [10, 10]", top)
	}
	flat := []int32{5, 5, 5, 5}
	for _, size := range []int{0, 1} {
		if p := plan(flat, flat, size); len(p) != 1 || p[0] != (interval{kmin: 5, kmax: 5}) {
			t.Errorf("S=%d: one-value plan %v, want [[5, 5]]", size, p)
		}
	}
}
