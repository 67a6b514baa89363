// Sampling-based approximate (k,h)-core decomposition — the engine's
// first sub-exact mode (Tatti, "Fast computation of distance-generalized
// cores using sampling"). Exact decomposition is bounded below by the
// per-vertex h-ball cost no matter how the work is scheduled; this path
// replaces every exact ball with the budgeted sampled BFS of
// internal/hbfs and peels the estimates, trading a bounded amount of
// core-index error for the order of magnitude the exact kernels cannot
// reach.
//
// The pipeline has two phases, mirroring the exact HLBUB split that
// Stats already reports per phase:
//
//  1. Estimate — every vertex's h-degree is estimated by the pool's
//     batched sampled kernel (Pool.HDegreesSampled). Estimates are pure
//     functions of (graph, h, budget, seed, vertex), so the parallel
//     schedule cannot affect them.
//  2. Peel — a serial Algorithm-5-style peel over the full graph: pop
//     the minimum vertex, settle its core index at the running level,
//     re-sample its ball from the same per-vertex stream, and decrement
//     the estimated h-degree of every still-queued sampled member by its
//     Horvitz–Thompson weight (an integer decrement with a per-vertex
//     fractional carry, so bucket keys stay integers while the expected
//     decrement mass is preserved). With an unlimited budget every
//     weight is 1 and the loop is exactly powerPeelSerial — the
//     approximate result converges to the power-graph bound as the
//     budget grows.
//
// Determinism: phase 1 is schedule-independent by construction and
// phase 2 is serial, so for a fixed Options.Approx.Seed the whole result
// is bit-identical at any worker count — the property the determinism
// tests pin.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hbfs"
)

// DefaultApproxEpsilon is the target relative error used when
// ApproxOptions.Epsilon is left zero.
const DefaultApproxEpsilon = 0.25

// DefaultApproxConfidence is the confidence level used when
// ApproxOptions.Confidence is left zero.
const DefaultApproxConfidence = 0.9

// minSampleBudget floors the derived per-level expansion budget: below
// ~4 expansions per frontier the estimator's variance swamps any epsilon.
const minSampleBudget = 4

// ApproxOptions configures the sampling-based approximate decomposition.
// The approximate result targets the power-graph bound that exact HLBUB
// uses as its upper envelope (Algorithm 5); per-vertex error against the
// exact core index is bounded in expectation by Epsilon relative to the
// graph's h-degeneracy, and the realized bound of a run is reported in
// Stats.Approx.ErrorBound. `khexp approx` sweeps the accuracy/latency
// trade-off across epsilon settings; khbench's approx_ms and approx_err
// track one setting on every run.
type ApproxOptions struct {
	// Enabled switches the run to the approximate path. Requires the
	// default HLBUB algorithm.
	Enabled bool
	// Epsilon is the target relative core-index error in (0, 1); zero
	// selects DefaultApproxEpsilon. Smaller epsilon means a larger
	// sampling budget and less speedup.
	Epsilon float64
	// Confidence is the target probability in (0, 1) that a single
	// h-degree estimate lands within the relative error; zero selects
	// DefaultApproxConfidence.
	Confidence float64
	// Seed seeds the per-vertex sampling streams. Runs with equal seeds
	// (and equal graph/h/budget) produce bit-identical results at any
	// worker count; vary the seed to resample.
	Seed uint64
	// SampleBudget caps the number of frontier vertices expanded per BFS
	// level. Zero derives the budget from Epsilon and Confidence via
	// SampleBudgetFor; negative is invalid. Larger budgets reduce both
	// error and speedup; a budget no frontier exceeds makes the run
	// exact.
	SampleBudget int
}

// withDefaults resolves the zero values of an enabled configuration.
func (a ApproxOptions) withDefaults() ApproxOptions {
	if !a.Enabled {
		return a
	}
	if a.Epsilon == 0 {
		a.Epsilon = DefaultApproxEpsilon
	}
	if a.Confidence == 0 {
		a.Confidence = DefaultApproxConfidence
	}
	if a.SampleBudget == 0 {
		a.SampleBudget = SampleBudgetFor(a.Epsilon, a.Confidence)
	}
	return a
}

// validate checks a resolved configuration against the documented ranges.
func (a ApproxOptions) validate() error {
	if a.Epsilon <= 0 || a.Epsilon >= 1 || math.IsNaN(a.Epsilon) {
		return fmt.Errorf("%w: Epsilon=%v (need 0 < ε < 1)", ErrInvalidApprox, a.Epsilon)
	}
	if a.Confidence <= 0 || a.Confidence >= 1 || math.IsNaN(a.Confidence) {
		return fmt.Errorf("%w: Confidence=%v (need 0 < confidence < 1)", ErrInvalidApprox, a.Confidence)
	}
	if a.SampleBudget < 0 {
		return fmt.Errorf("%w: SampleBudget=%d (need ≥ 0)", ErrInvalidApprox, a.SampleBudget)
	}
	return nil
}

// SampleBudgetFor derives the per-level expansion budget from a target
// relative error and confidence, Hoeffding-style:
// ⌈ln(2/(1−confidence)) / (2ε²)⌉, floored at a small constant. The bound
// treats each frontier expansion as one draw of the level's mean
// branching factor, so it calibrates the budget to the requested error on
// a per-level basis; the compounding across levels is what the
// statistical property test measures empirically.
func SampleBudgetFor(epsilon, confidence float64) int {
	if epsilon <= 0 || epsilon >= 1 || confidence <= 0 || confidence >= 1 {
		return minSampleBudget
	}
	b := int(math.Ceil(math.Log(2/(1-confidence)) / (2 * epsilon * epsilon)))
	if b < minSampleBudget {
		b = minSampleBudget
	}
	return b
}

// ApproxStats is the quality report of an approximate run, surfaced as
// Stats.Approx.
type ApproxStats struct {
	// Enabled marks the run as approximate.
	Enabled bool
	// Epsilon, Confidence, Seed and SampleBudget echo the resolved
	// configuration the run actually used (defaults applied, budget
	// derived).
	Epsilon    float64
	Confidence float64
	Seed       uint64
	// SampleBudget is the resolved per-level expansion budget.
	SampleBudget int
	// SamplesDrawn counts frontier vertices expanded by the sampled
	// BFS runs across both phases — the work the run actually did where
	// the exact path would have expanded whole frontiers.
	SamplesDrawn int64
	// TruncatedBalls counts the frontiers the budget subsampled; zero
	// means every ball fit the budget and the run was exact.
	TruncatedBalls int64
	// ErrorBound is the advertised per-vertex core-index error bound of
	// this run: ⌈Epsilon × Δ̃_h⌉ (at least 1), where Δ̃_h is the maximum
	// estimated h-degree. Sampled ball-size estimates err relative to
	// ball sizes, and the peeling level a vertex settles at inherits
	// error on that scale, so the h-degree maximum — not the (much
	// smaller) degeneracy — is the honest normalizer. Observed errors on
	// the benchmark graphs sit well inside the bound:
	// TestApproxErrorWithinBound checks it, and khbench's approx_err
	// reports the observed error on every run.
	ErrorBound int
	// PhaseEstimate / PhasePeel are the wall-times of the two pipeline
	// phases, mirroring the exact path's Phase* metrics.
	PhaseEstimate time.Duration
	PhasePeel     time.Duration
}

// runApprox executes the approximate decomposition (options already
// validated and resolved). Core indices land in e.core like every other
// run path; cancellation and counter accounting follow the exact paths'
// contracts.
func (e *Engine) runApprox() {
	a := e.opts.Approx
	st := &e.stats.Approx
	st.Enabled = true
	st.Epsilon, st.Confidence, st.Seed, st.SampleBudget =
		a.Epsilon, a.Confidence, a.Seed, a.SampleBudget
	n := e.g.NumVertices()
	if n == 0 {
		return
	}
	// Phase 1: batched sampled h-degree estimates over the full graph.
	// Approximate peeling follows Algorithm 5's full-graph-ball design
	// (no alive mask): balls never depend on peel state, which keeps
	// every sample a pure function of (seed, vertex) — and the empirical
	// accuracy is better than alive-masked peeling, whose sampled balls
	// compound the mask's own estimation error.
	t0 := time.Now()
	e.degH = growInt32(e.degH, n)
	e.pool.HDegreesSampled(e.allVerts(), e.h, nil, a.SampleBudget, a.Seed, e.degH)
	e.stats.HDegreeComputations += int64(n)
	st.PhaseEstimate = time.Since(t0)
	if e.cancel.stop() {
		return
	}
	// Phase 2: serial weighted peel of the estimates.
	t0 = time.Now()
	e.approxPeel(a.SampleBudget, a.Seed)
	st.PhasePeel = time.Since(t0)
	st.SamplesDrawn = e.pool.Expansions()
	st.TruncatedBalls = e.pool.Truncations()
	maxDeg := int32(0)
	for _, d := range e.degH {
		if d > maxDeg {
			maxDeg = d
		}
	}
	st.ErrorBound = approxErrorBound(a.Epsilon, int(maxDeg))
}

// approxErrorBound is the advertised per-vertex error bound: epsilon
// relative to the maximum estimated h-degree, at least 1.
func approxErrorBound(epsilon float64, maxDeg int) int {
	b := int(math.Ceil(epsilon * float64(maxDeg)))
	if b < 1 {
		b = 1
	}
	return b
}

// approxPeel is the serial weighted Algorithm-5 peel over the estimated
// h-degrees. Each popped vertex settles at the running level; its sampled
// ball (re-derived from the vertex's own stream — no per-vertex sample
// storage) decrements every still-queued member by the member's
// Horvitz–Thompson weight. Weights enter an integer bucket queue through
// a per-vertex fractional carry: the carry accumulates the weight and the
// integer part is applied, so the expected decrement mass matches the
// weights exactly while keys stay integers. Untruncated balls have all
// weights 1 and take the carry-free fast path — with a budget no frontier
// exceeds, this loop is powerPeelSerial bit for bit.
//
//khcore:peel
func (e *Engine) approxPeel(budget int, seed uint64) {
	n := e.g.NumVertices()
	e.ubdeg = growInt32(e.ubdeg, n)
	for v := 0; v < n; v++ {
		d := e.degH[v]
		if d < 0 {
			d = 0
		}
		e.ubdeg[v] = d //khcore:atomic-ok serial approximate peel; no fan-out is in flight
	}
	e.approxResid = growFloat64(e.approxResid, n)
	for i := range e.approxResid {
		e.approxResid[i] = 0
	}
	q := e.sv[0].q
	q.Clear()
	for v := 0; v < n; v++ {
		q.insert(v, int(e.ubdeg[v])) //khcore:atomic-ok serial approximate peel; no fan-out is in flight
	}
	t := e.trav()
	ubdeg := e.ubdeg
	k := 0
	ops := 0
	for q.Len() > 0 {
		if ops++; ops&cancelCheckMask == 0 && e.cancel.stop() {
			break
		}
		v, kv := q.PopMin(k)
		if v < 0 {
			break
		}
		if kv > k {
			k = kv
		}
		e.core[v] = int32(k)
		e.stats.HDegreeComputations++
		rng := hbfs.ForVertex(seed, int32(v))
		sb := t.SampledBall(v, e.h, nil, budget, &rng)
		start := int32(0)
		for bi, end := range sb.BlockEnd {
			w := sb.BlockWeight[bi]
			for _, nb := range sb.Verts[start:end] {
				u := int(nb)
				if !q.Contains(u) {
					continue
				}
				dec := 1
				if w != 1 {
					e.approxResid[u] += w
					dec = int(e.approxResid[u])
					e.approxResid[u] -= float64(dec)
					if dec == 0 {
						continue
					}
				}
				nd := int(ubdeg[u]) - dec //khcore:atomic-ok serial approximate peel; no fan-out is in flight
				if nd < 0 {
					nd = 0
				}
				ubdeg[u] = int32(nd) //khcore:atomic-ok serial approximate peel; no fan-out is in flight
				e.stats.Decrements++
				nk := nd
				if nk < k {
					nk = k
				}
				q.move(u, nk)
			}
			start = end
		}
	}
}
