package core

import (
	"fmt"
	"slices"
	"time"
)

// runHLBUB implements Algorithm 4 (h-LB+UB): compute lower bounds (LB2)
// and the power-graph upper bound (Algorithm 5), partition the range of
// core-index values into top-down intervals, and resolve the intervals.
// Each interval [kmin, kmax] is solved independently on the subgraph
// induced by V[kmin] = {v : UB(v) ≥ kmin} (Observation 3), after ImproveLB
// (Algorithm 6) has raised the lower bounds and evicted vertices that
// cannot reach h-degree kmin.
//
// The independence of the intervals is what the parallel path exploits:
// when the engine's schedule decision is open (Engine.parallel: at least
// two pool workers and GOMAXPROCS > 1) and more than one interval is
// planned, the intervals become a work queue drained by one
// partitionSolver per worker, each on its own arena over the shared
// read-only graph and bound arrays, and every interval
// writes the core indices it settles directly into the shared output —
// positions are disjoint because each vertex's core index falls in exactly
// one interval, so the merged result is deterministic (and bit-identical
// to the sequential path's, which every other run takes: it carries
// settled vertices and LB3 raises across intervals, an optimization only
// a serial schedule can exploit).
//
// A run that finishes uncanceled must have settled every vertex; one
// that did not returns an error wrapping ErrInvalidResult (see
// checkSettled) instead of a zeroed core index.
func (e *Engine) runHLBUB() error {
	n := e.g.NumVertices()
	if n == 0 {
		return nil
	}

	// Lines 3–6: initial h-degrees, LB2, LB3 ← 0 (parallel, §4.6). The
	// batch reports how many sources it actually evaluated, so the stat
	// stays honest when an alive mask (or a dead vertex) shrinks the work.
	// Each pipeline stage records its wall-time, which khbench reports as
	// the core.phase_*_ms layers.
	t0 := time.Now()
	e.degH = growInt32(e.degH, n)
	e.stats.HDegreeComputations += e.pool.HDegrees(e.allVerts(), e.h, e.alive0(), e.degH)
	e.stats.PhaseHDegrees = time.Since(t0)
	if e.cancel.stop() {
		return nil // the batch was drained early; nothing downstream may read it
	}
	t0 = time.Now()
	lb2 := e.mergeSeedLB(e.lb2Into(e.lb1Into()))
	e.stats.PhaseLowerBounds = time.Since(t0)

	// Line 7: upper bounds via implicit power-graph peeling, tightened by
	// the carried bound when a Maintainer supplies one.
	t0 = time.Now()
	ub := e.upperBoundsInto(e.degH)
	e.stats.PhaseUpperBound = time.Since(t0)
	if e.cancel.stop() {
		return nil // Algorithm 5 aborted; the bounds are partial
	}
	if e.seedUB != nil {
		for v := range ub {
			if e.seedUB[v] < ub[v] {
				ub[v] = e.seedUB[v]
			}
		}
	}

	// The concurrent path trades the serial carry savings for parallelism,
	// so it runs only where the engine's schedule decision says
	// parallelism can materialize (see Engine.parallel); otherwise a
	// multi-worker engine takes the serial carry path. The effective
	// solver count also drives the adaptive partition budget — a serial
	// run must not pay a worker-scaled partition count.
	solvers := 1
	if e.parallel {
		solvers = e.pool.Workers()
	}

	// Lines 8–11: distinct UB values ∪ {min LB2 − 1} descending, split
	// into covering top-down intervals.
	e.planIntervals(ub, lb2, solvers)

	t0 = time.Now()
	bound := e.sv[:1]
	if solvers > 1 && len(e.intervals) > 1 {
		e.runIntervalsParallel(ub, lb2)
		bound = e.sv[:e.parSolvers]
	} else {
		e.runIntervalsSequential(ub, lb2)
	}
	e.stats.PhaseIntervals = time.Since(t0)
	if e.cancel.stop() {
		return nil // abandoned intervals settle nothing; the caller reports the cancellation
	}
	return e.checkSettled(bound)
}

// checkSettled reports, as an error wrapping ErrInvalidResult, the first
// vertex the interval phase left unsettled: every vertex's core index
// lies in exactly one interval, so a completed run has settled them all,
// and a vertex that was not would otherwise keep its zeroed core index
// silently. sv holds the solvers the run bound (the sequential solver, or
// the fan-out's fleet); a vertex is settled when one of their assigned
// sets holds it. O(n·len(sv)); it allocates only on failure.
func (e *Engine) checkSettled(sv []*partitionSolver) error {
next:
	for v := 0; v < e.g.NumVertices(); v++ {
		for _, s := range sv {
			if s.assigned.Contains(v) {
				continue next
			}
		}
		return fmt.Errorf("%w: h-LB+UB left vertex %d unsettled", ErrInvalidResult, v)
	}
	return nil
}

// planIntervals computes the descending distinct upper-bound values (with
// the min(LB2)−1 sentinel) and splits them into the top-down intervals of
// Algorithm 4, filling e.intervals. A positive Options.PartitionSize keeps
// the paper's fixed width — S distinct UB values per partition, per the
// semantics of Example 4. The adaptive default (PartitionSize ≤ 0)
// balances estimated work instead: it builds the UB histogram and closes
// an interval once the number of vertices whose upper bound falls inside
// it reaches an equal share of the remainder — the settle work is what
// parallel solvers can actually divide, and distinct-value count is a poor
// proxy for it on skewed graphs where one hub value carries thousands of
// vertices and a tail value carries one. The target partition count grows
// with the effective solver count so the work queue stays long enough to
// balance. When the top value alone outweighs a share, it would close an
// interval [maxUB, maxUB] on its own; the adaptive plan folds it into the
// next interval instead, so the top interval spans at least two distinct
// values whenever there are two. The largest upper bound is rarely a core
// index, and such an interval paid a full ImproveLB pass to evict its
// whole partition while settling nothing (caHe at h = 3: [384, 384], 713
// vertices).
func (e *Engine) planIntervals(ub, lb2 []int32, solvers int) {
	minLB2 := lb2[0]
	for _, b := range lb2[1:] {
		if b < minLB2 {
			minLB2 = b
		}
	}
	vals := append(e.ubvals[:0], ub...)
	vals = append(vals, minLB2-1)
	slices.Sort(vals)
	vals = slices.Compact(vals)
	slices.Reverse(vals)
	e.ubvals = vals

	e.intervals = e.intervals[:0]
	if step := e.opts.PartitionSize; step > 0 {
		for j := 0; j < len(vals)-1; {
			kmax := int(vals[j])
			jn := j + step
			if jn > len(vals)-1 {
				jn = len(vals) - 1
			}
			e.intervals = append(e.intervals, interval{kmin: int(vals[jn]) + 1, kmax: kmax})
			j = jn
		}
		return
	}

	// Adaptive: UB histogram → equal vertex mass per interval. Every
	// vertex's upper bound is ≥ minLB2 > sentinel, so indexing by value is
	// safe and the sentinel row stays zero.
	maxVal := int(vals[0])
	e.ubcnt = growInt32(e.ubcnt, maxVal+1)
	cnt := e.ubcnt
	for i := 0; i <= maxVal; i++ {
		cnt[i] = 0
	}
	for _, u := range ub {
		cnt[u]++
	}
	// Twice the solver count keeps the work queue deep enough to balance,
	// but every partition pays an ImproveLB sweep over the cumulative
	// V[kmin] — not just its own mass share — so the count is capped:
	// past ~32 partitions the added bound work grows linearly with core
	// count while the balancing benefit has long flattened.
	parts := 2 * solvers
	if parts < 8 {
		parts = 8
	}
	if parts > 32 {
		parts = 32
	}
	remaining := int64(len(ub))
	for j := 0; j < len(vals)-1; {
		share := remaining / int64(parts-len(e.intervals))
		if share < 1 {
			share = 1
		}
		var acc int64
		jn := j
		for jn < len(vals)-1 && (jn == j || acc < share) {
			acc += int64(cnt[vals[jn]])
			jn++
		}
		// Last interval absorbs a tail too small to stand alone.
		if len(e.intervals) == parts-1 {
			for ; jn < len(vals)-1; jn++ {
				acc += int64(cnt[vals[jn]])
			}
		}
		e.intervals = append(e.intervals, interval{kmin: int(vals[jn]) + 1, kmax: int(vals[j])})
		remaining -= acc
		j = jn
	}
	// A top interval holding only the largest upper bound folds into the
	// next one, so the top interval spans at least two values.
	if iv := e.intervals; len(iv) > 1 && iv[0].kmin == int(vals[1])+1 {
		iv[1].kmax = iv[0].kmax
		e.intervals = append(iv[:0], iv[1:]...)
	}
}

// runIntervalsSequential resolves the planned intervals top-down inside
// the sequential solver arena, carrying state across intervals the way
// the paper's serial Algorithm 4 does: vertices settled by a higher
// interval stay in lower intervals as distance carriers (seeded above the
// frontier from their final core index) but are never re-processed, and
// LB3 raises persist — the key savings over h-LB that only a serial
// schedule can exploit.
//
//khcore:peel
func (e *Engine) runIntervalsSequential(ub, lb2 []int32) {
	s := e.sv[0]
	copy(s.lb3, lb2)

	for _, iv := range e.intervals {
		if e.cancel.stop() {
			return // canceled between intervals
		}
		kmin, kmax := iv.kmin, iv.kmax
		s.stats.Partitions++

		// Line 12: V[kmin] = {v : UB(v) ≥ kmin} becomes the alive set.
		if !s.buildPartition(kmin, ub) {
			continue
		}

		// Lines 13–14: ImproveLB cleans the partition and raises LB3;
		// s.dirty marks survivors whose h-degree the cleaning touched, and
		// s.capped (cleared here — marks from the previous partition are
		// stale) the survivors whose h-degree count was truncated.
		s.capped.Clear()
		s.improveLB(s.part, kmin, kmax)

		// Lines 15–18: seed the bucket queue — with the settled-vertex
		// carry, so vertices assigned by a higher interval are never
		// re-processed — and resolve core indices in [kmin, kmax].
		s.seedQueue(kmin, kmax)
		s.coreDecomp(kmin, kmax)
	}
}

// runIntervalsParallel drains the planned intervals through one
// partitionSolver per pool worker (Pool.Run hands each worker its index
// and traversal; the engine's parJob closure claims intervals off an
// atomic cursor, bottom-up so the widest subgraphs start first). Solvers
// share only read-only state — the CSR graph, the upper bounds and LB2 —
// plus the output core array, whose written positions are disjoint across
// intervals; everything mutable lives in the per-worker arenas, so the
// fan-out is race-free and the merged result deterministic.
//
//khcore:peel
func (e *Engine) runIntervalsParallel(ub, lb2 []int32) {
	// An arena can only do work while an interval remains unclaimed, so
	// the fleet is capped at the interval count: each arena pre-sizes
	// O(n) scratch, and a 64-worker engine peeling a 32-interval plan
	// must not pay for 32 arenas that can never claim anything. Workers
	// beyond the cap return from parJob immediately.
	w := e.pool.Workers()
	if w > len(e.intervals) {
		w = len(e.intervals)
	}
	e.parSolvers = w
	for len(e.sv) < w {
		e.sv = append(e.sv, newPartitionSolver())
	}
	for _, s := range e.sv[:w] {
		// nil pool: inside a Run job the batch kernels are off-limits
		// (worker 0 would deadlock); inter-interval concurrency replaces
		// intra-batch concurrency here.
		s.bind(e.g, e.core, e.h, e.fixedSlack, nil, &e.cancel)
	}
	e.parUB, e.parLB2 = ub, lb2
	e.cursor.Store(0)
	e.pool.Run(e.parJob)
	e.parUB, e.parLB2 = nil, nil
}
