package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
)

// TestSampleBudgetFor pins the Hoeffding-style budget derivation at the
// epsilon settings the benchmarks sweep, plus the floor and the
// out-of-range fallback.
func TestSampleBudgetFor(t *testing.T) {
	cases := []struct {
		eps, conf float64
		want      int
	}{
		{0.1, 0.9, 150},
		{0.2, 0.9, 38},
		{0.3, 0.9, 17},
		{0.5, 0.9, 6},
		{0.9, 0.9, 4}, // floored at minSampleBudget
		{0, 0.9, minSampleBudget},
		{0.3, 1.5, minSampleBudget},
	}
	for _, c := range cases {
		if got := SampleBudgetFor(c.eps, c.conf); got != c.want {
			t.Errorf("SampleBudgetFor(%v, %v) = %d, want %d", c.eps, c.conf, got, c.want)
		}
	}
}

// TestApproxCounterGolden pins the deterministic work counters of the
// approximate tier at ε = 0.3 and seed 7: visits, h-degree computations,
// decrements, sampled expansions and truncated balls, at 1 and 2 workers.
// The sampled estimates depend only on (seed, vertex), so the counters
// must not move with the worker count. A change that moves them on
// purpose updates them here, with the before and after recorded in
// CHANGES.md.
func TestApproxCounterGolden(t *testing.T) {
	golden := []struct {
		name                                          string
		h                                             int
		visits, hdegs, decrements, samples, truncated int64
	}{
		{"FBco", 3, 896138, 2000, 236053, 61606, 3290},
		{"caHe", 3, 500116, 2800, 134842, 66170, 2764},
		{"lj", 2, 7547100, 20000, 1973265, 237612, 3258},
	}
	for _, c := range golden {
		g, err := datasets.Load(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			eng := NewEngine(g, workers)
			var res Result
			err := eng.DecomposeInto(&res, Options{H: c.h, Approx: ApproxOptions{Enabled: true, Epsilon: 0.3, Seed: 7}})
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			got := [5]int64{st.Visits, st.HDegreeComputations, st.Decrements, st.Approx.SamplesDrawn, st.Approx.TruncatedBalls}
			if want := [5]int64{c.visits, c.hdegs, c.decrements, c.samples, c.truncated}; got != want {
				t.Errorf("%s h=%d, %d workers: visits, h-degree computations, decrements, samples, truncated balls %v; want %v",
					c.name, c.h, workers, got, want)
			}
		}
	}
}

// TestApproxDeterministicAcrossWorkers is the approximate mode's
// reproducibility contract: a fixed Options.Approx.Seed yields
// bit-identical core indices at any worker count, across repeated runs on
// a warm engine, and from a fresh engine.
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(1200, 4, 5)
	opts := Options{H: 3, Approx: ApproxOptions{Enabled: true, Epsilon: 0.3, Seed: 42}}
	var want []int
	for _, workers := range []int{1, 2, 4} {
		eng := NewEngine(g, workers)
		for rep := 0; rep < 2; rep++ {
			var res Result
			if err := eng.DecomposeInto(&res, opts); err != nil {
				eng.Close()
				t.Fatal(err)
			}
			if want == nil {
				want = append([]int(nil), res.Core...)
				continue
			}
			decomposeEqual(t, res.Core, want, "approx workers/rep sweep")
		}
		eng.Close()
	}
}

// TestApproxSeedSensitivity: different seeds must actually resample —
// some core index differs somewhere at a budget that truncates.
func TestApproxSeedSensitivity(t *testing.T) {
	g := gen.BarabasiAlbert(1200, 4, 5)
	a, err := Decompose(g, Options{H: 3, Approx: ApproxOptions{Enabled: true, Epsilon: 0.5, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(g, Options{H: 3, Approx: ApproxOptions{Enabled: true, Epsilon: 0.5, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Core {
		if a.Core[v] != b.Core[v] {
			return
		}
	}
	t.Fatal("seeds 1 and 2 produced identical approximate results — sampling is not seed-driven")
}

// TestApproxUnlimitedBudgetMatchesPowerUB pins the convergence end of the
// estimator: a budget no frontier can exceed makes every sampled ball
// exact and the weighted peel runs the power-graph peel bit for bit, so
// the "approximate" result must equal the exact power-graph upper bounds.
func TestApproxUnlimitedBudgetMatchesPowerUB(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ApproxOptions
	}{
		{"budget=n", ApproxOptions{Enabled: true, SampleBudget: 1 << 20, Seed: 3}},
		{"tiny graph under floor", ApproxOptions{Enabled: true, Epsilon: 0.9, Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.ErdosRenyi(300, 900, 7)
			if tc.name == "tiny graph under floor" {
				g = gen.Path(5) // every frontier ≤ 2 < minSampleBudget
			}
			h := 2
			res, err := Decompose(g, Options{H: h, Approx: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			ub := UpperBounds(g, h, 1)
			for v, c := range res.Core {
				if int32(c) != ub[v] {
					t.Fatalf("core[%d] = %d, want power-UB %d", v, c, ub[v])
				}
			}
			if res.Stats.Approx.TruncatedBalls != 0 {
				t.Fatalf("unbudgeted run truncated %d balls", res.Stats.Approx.TruncatedBalls)
			}
		})
	}
}

// TestApproxOptionValidation: every documented invalid configuration must
// surface ErrInvalidApprox (wrapped, matchable with errors.Is), and the
// exact-only surfaces — dynamic maintenance and the spectrum sweep —
// must reject approximate options outright.
func TestApproxOptionValidation(t *testing.T) {
	g := gen.Path(6)
	bad := []struct {
		name string
		opts Options
	}{
		{"negative epsilon", Options{H: 2, Approx: ApproxOptions{Enabled: true, Epsilon: -0.1}}},
		{"epsilon one", Options{H: 2, Approx: ApproxOptions{Enabled: true, Epsilon: 1}}},
		{"epsilon NaN", Options{H: 2, Approx: ApproxOptions{Enabled: true, Epsilon: math.NaN()}}},
		{"confidence too high", Options{H: 2, Approx: ApproxOptions{Enabled: true, Confidence: 1}}},
		{"negative budget", Options{H: 2, Approx: ApproxOptions{Enabled: true, SampleBudget: -1}}},
		{"baseline algorithm", Options{H: 2, Algorithm: HBZ, AllowBaseline: true, Approx: ApproxOptions{Enabled: true}}},
		{"hlb algorithm", Options{H: 2, Algorithm: HLB, Approx: ApproxOptions{Enabled: true}}},
	}
	for _, tc := range bad {
		if _, err := Decompose(g, tc.opts); !errors.Is(err, ErrInvalidApprox) {
			t.Errorf("%s: err = %v, want ErrInvalidApprox", tc.name, err)
		}
	}
	approx := Options{H: 2, Approx: ApproxOptions{Enabled: true}}
	if _, err := NewMaintainer(g, 2, approx); !errors.Is(err, ErrInvalidApprox) {
		t.Errorf("NewMaintainer accepted approximate options: %v", err)
	}
	if _, err := DecomposeSpectrum(g, 3, approx); !errors.Is(err, ErrInvalidApprox) {
		t.Errorf("DecomposeSpectrum accepted approximate options: %v", err)
	}
}

// TestApproxStatsReport: an enabled run must echo its resolved
// configuration (defaults applied, budget derived) and populate the work
// and quality counters.
func TestApproxStatsReport(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 5, 9)
	res, err := Decompose(g, Options{H: 3, Approx: ApproxOptions{Enabled: true, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Approx
	if !st.Enabled {
		t.Fatal("Stats.Approx.Enabled false on an approximate run")
	}
	if st.Epsilon != DefaultApproxEpsilon || st.Confidence != DefaultApproxConfidence {
		t.Errorf("defaults not echoed: eps=%v conf=%v", st.Epsilon, st.Confidence)
	}
	if want := SampleBudgetFor(DefaultApproxEpsilon, DefaultApproxConfidence); st.SampleBudget != want {
		t.Errorf("SampleBudget = %d, want derived %d", st.SampleBudget, want)
	}
	if st.Seed != 11 {
		t.Errorf("Seed = %d, want 11", st.Seed)
	}
	if st.SamplesDrawn <= 0 || st.TruncatedBalls <= 0 {
		t.Errorf("work counters not populated: samples=%d truncated=%d", st.SamplesDrawn, st.TruncatedBalls)
	}
	if st.ErrorBound < 1 {
		t.Errorf("ErrorBound = %d, want ≥ 1", st.ErrorBound)
	}
	if st.PhaseEstimate <= 0 || st.PhasePeel <= 0 {
		t.Errorf("phase wall-times not populated: estimate=%v peel=%v", st.PhaseEstimate, st.PhasePeel)
	}
	// An exact run must leave the approximate block zeroed.
	res2, err := Decompose(g, Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Approx.Enabled {
		t.Error("exact run reports Stats.Approx.Enabled")
	}
}

// TestApproxErrorWithinBound: on the benchmark-family graph the observed
// per-vertex core-index error of an approximate run must stay within the
// advertised Stats.Approx.ErrorBound — the accuracy half of the
// approximate tier's contract.
func TestApproxErrorWithinBound(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 4, 97)
	for _, h := range []int{2, 3} {
		exact, err := Decompose(g, Options{H: h})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.2, 0.3, 0.5} {
			res, err := Decompose(g, Options{H: h, Approx: ApproxOptions{Enabled: true, Epsilon: eps, Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			bound := res.Stats.Approx.ErrorBound
			worst, at := 0, -1
			for v := range exact.Core {
				d := res.Core[v] - exact.Core[v]
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst, at = d, v
				}
			}
			if worst > bound {
				t.Errorf("h=%d eps=%.1f: |core[%d] error| = %d exceeds advertised bound %d", h, eps, at, worst, bound)
			}
		}
	}
}

// TestApproxCancelLeavesEngineReusable extends the PR-4 cancellation
// acceptance property to the approximate path: cancel at many depths
// (including inside the estimate fan-out and the weighted peel), then
// demand an uncanceled rerun on the same engine match a fresh engine's
// result bit for bit.
func TestApproxCancelLeavesEngineReusable(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 13)
	opts := Options{H: 3, Approx: ApproxOptions{Enabled: true, Epsilon: 0.3, Seed: 5}}
	want, err := Decompose(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, 2)
	defer eng.Close()
	canceled := false
	for _, polls := range []int64{0, 1, 3, 10, 50} {
		ctx := newCountdown(polls)
		var res Result
		err := eng.DecomposeIntoCtx(ctx, &res, opts)
		if err != nil {
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("polls=%d: err = %v, want ErrCanceled wrapping context.Canceled", polls, err)
			}
			canceled = true
		}
		var redo Result
		if err := eng.DecomposeInto(&redo, opts); err != nil {
			t.Fatalf("rerun after cancel at %d polls: %v", polls, err)
		}
		decomposeEqual(t, redo.Core, want.Core, "post-cancel rerun")
	}
	if !canceled {
		t.Fatal("no poll count canceled the run — countdown too large")
	}
}

// TestApproxZeroAllocsSteadyState: a warm engine must run the approximate
// path allocation-free, single-worker and parallel alike.
func TestApproxZeroAllocsSteadyState(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 23)
	opts := Options{H: 3, Approx: ApproxOptions{Enabled: true, Epsilon: 0.3, Seed: 7}}
	for _, workers := range []int{1, 4} {
		eng := NewEngine(g, workers)
		var res Result
		if err := eng.DecomposeInto(&res, opts); err != nil { // warm-up sizes all arenas
			eng.Close()
			t.Fatal(err)
		}
		// The batch cursor hands different vertices to different workers on
		// every run, so each worker's traversal scratch only reaches its
		// high-water mark after it has seen the worst vertex. Pre-warm every
		// traversal over the full vertex set to make the steady state
		// deterministic instead of scheduling-dependent.
		budget := opts.Approx.withDefaults().SampleBudget
		for w := 0; w < workers; w++ {
			tr := eng.pool.Traversal(w)
			for v := 0; v < g.NumVertices(); v++ {
				tr.HDegreeSampled(v, opts.H, nil, budget, opts.Approx.Seed)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := eng.DecomposeInto(&res, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("workers=%d: warm approximate run allocates %.1f objects/op, want 0", workers, allocs)
		}
		eng.Close()
	}
}
