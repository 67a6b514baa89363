package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/faultinject"
	"repro/internal/graph"
)

// forceParallelUB is a test hook mirroring forceParallelIntervals: the
// level-synchronous parallel Algorithm-5 peel is normally gated on
// GOMAXPROCS > 1, which would leave it untested on single-core CI shards;
// package tests flip this to exercise the real fan-out regardless.
var forceParallelUB = false

// upperBoundsInto implements Algorithm 5: an upper bound on every core
// index obtained by peeling the power graph G^h implicitly, without ever
// materializing it. The h-neighborhood of a popped vertex is re-computed in
// the *original* graph each time (Algorithm 5 never shrinks V — that is
// exactly what makes its result the classic core decomposition of G^h),
// and the approximate h-degree (UBdeg) of each neighbor still in the queue
// is decremented by exactly 1 — an optimistic update, since the true
// h-degree can drop by more — so the level at which a vertex is popped
// upper-bounds its (k,h)-core index. degH supplies the initial h-degrees.
// The result lands in (and aliases) the engine's ub scratch; the
// sequential solver's bucket queue is borrowed and left empty.
//
// A multi-worker engine on a multi-core host (same gate as the interval
// peeling, with its own force hook) runs the level-synchronous parallel
// peel; everything else takes the serial loop.
func (e *Engine) upperBoundsInto(degH []int32) []int32 {
	n := e.g.NumVertices()
	e.ub = growInt32(e.ub, n)
	ub := e.ub
	if e.opts.UpperBound == HDegreeUB {
		// Ablation baseline (Table 5, "h-degree" column): the raw
		// h-degree is itself an upper bound on the core index.
		copy(ub, degH)
		return ub
	}
	q := e.powerPeelInit(degH)
	if e.pool.Workers() > 1 && (runtime.GOMAXPROCS(0) > 1 || forceParallelUB) {
		e.powerPeelParallel(ub, e.ubdeg, q)
	} else {
		e.powerPeelSerial(ub, e.ubdeg, q, nil)
	}
	return ub
}

// powerPeelInit sizes the engine's ub/ubdeg scratch from degH and seeds
// the borrowed sequential bucket queue with every vertex at its
// approximate h-degree (Algorithm 5 lines 1–2), returning the queue.
func (e *Engine) powerPeelInit(degH []int32) *bucketQueue {
	n := e.g.NumVertices()
	e.ub = growInt32(e.ub, n)
	e.ubdeg = growInt32(e.ubdeg, n)
	copy(e.ubdeg, degH)
	q := e.sv[0].q
	q.Clear()
	for v := 0; v < n; v++ {
		q.insert(v, int(e.ubdeg[v])) //khcore:atomic-ok serial queue seeding before any ball fan-out
	}
	return q
}

// powerPeelSerial is the one serial Algorithm-5 loop body, shared by the
// single-core upper-bound path and PowerPeelingOrder: pop the minimum
// vertex, settle its bound at the running level, and decrement the
// approximate h-degree of every still-queued vertex in its h-ball. When
// order is non-nil, every settled vertex is appended to it — the
// degeneracy ordering of G^h — and the grown slice is returned. The
// cancellation broadcast is polled on the usual amortized schedule.
//
//khcore:hotpath
//khcore:peel
func (e *Engine) powerPeelSerial(ub, ubdeg []int32, q *bucketQueue, order []int) []int {
	t := e.trav()
	k := 0
	ops := 0
	for q.Len() > 0 {
		if ops++; ops&cancelCheckMask == 0 && e.cancel.stop() {
			break // Algorithm 5 is the serial prefix; cancel it promptly too
		}
		v, kv := q.PopMin(k)
		if v < 0 {
			break
		}
		if kv > k {
			k = kv
		}
		ub[v] = int32(k)
		if order != nil {
			order = append(order, v)
		}
		// Algorithm 5 peels over the full vertex set, so no alive mask;
		// the ball is consumed before the next pop reuses the scratch.
		verts, _ := t.Ball(v, e.h, nil)
		for _, nb := range verts {
			u := int(nb)
			if !q.Contains(u) {
				continue
			}
			ubdeg[u]--
			e.stats.Decrements++
			nk := int(ubdeg[u])
			if nk < k {
				nk = k
			}
			q.move(u, nk)
		}
	}
	return order
}

// powerPeelParallel is the level-synchronous parallel Algorithm-5 peel:
// instead of popping one vertex at a time, every round drains the entire
// current-level bucket at once, fans the popped vertices' h-balls across
// the pool workers (Pool.Balls), and applies the UBdeg decrements with
// per-vertex atomics. Removing a whole level together is exact for the
// implicit-power-graph core decomposition: a vertex popped at level k has
// its bound fixed at k no matter how many same-level pops decrement it
// first (its key is clamped at the frontier), and a vertex that stays
// queued past the level receives one decrement per popped vertex whose
// ball contains it under either schedule — so the result is bit-identical
// to the serial peel. Decrements from pops of the same round simply skip
// each other (both left the queue together), mirroring the serial
// no-op-on-popped rule.
//
// Each worker claims the vertices it decrements first (a CAS on the
// per-vertex round stamp) into a per-worker pending list; after the
// fan-out joins, a serial pass re-buckets each touched vertex exactly
// once at max(ubdeg, k). The dedup shrinks the serial residue of a round
// from one move per decrement to one move per distinct touched vertex —
// on ball-heavy rounds the former is many times the latter — while the
// per-worker decrement tallies keep Stats.Decrements identical to the
// serial peel. Frontiers smaller than the pool's batchMin run inline on
// worker 0 inside Pool.Balls, so the frequent tiny rounds of a skewed
// bound distribution never pay helper wake-ups.
//
//khcore:peel
func (e *Engine) powerPeelParallel(ub, ubdeg []int32, q *bucketQueue) {
	n := len(ub)
	e.ubFrontier = growInt32(e.ubFrontier, n)[:0]
	e.ubStamp = growInt32(e.ubStamp, n)
	for i := range e.ubStamp { //khcore:atomic-ok epoch reset before the round fan-out starts
		e.ubStamp[i] = 0
	}
	e.ubRound = 0
	for i := range e.ubDecs {
		e.ubDecs[i] = 0
	}
	k := 0
	for q.Len() > 0 {
		if e.cancel.stop() {
			break
		}
		v, kv := q.PopMin(k)
		if v < 0 {
			break
		}
		if kv > k {
			k = kv
		}
		// Drain the whole current-level bucket: these bounds are final.
		frontier := append(e.ubFrontier[:0], int32(v))
		ub[v] = int32(k)
		for {
			u := q.PopFrom(k)
			if u < 0 {
				break
			}
			ub[u] = int32(k)
			frontier = append(frontier, int32(u))
		}
		e.ubFrontier = frontier
		for w := range e.ubTouched {
			e.ubTouched[w] = e.ubTouched[w][:0]
		}
		e.ubRound++
		// Fan the frontier's h-balls across the workers. The bucket queue
		// is read-only for the duration (Contains probes only); ubdeg
		// updates go through atomics, and each touched vertex is claimed
		// into exactly one worker's pending list via the round stamp.
		e.pool.Balls(frontier, e.h, nil, e.ubBallJob)
		// Serial re-bucket of the round's distinct touched vertices. The
		// WaitGroup join inside Balls orders the workers' atomic
		// decrements and stamp claims before these plain reads.
		faultinject.Here(faultinject.UBRebucket)
		for w := range e.ubTouched {
			for _, u := range e.ubTouched[w] {
				nk := int(ubdeg[u])
				if nk < k {
					nk = k
				}
				q.move(int(u), nk)
			}
		}
	}
	for w := 0; w < len(e.ubDecs); w += ubDecStride {
		e.stats.Decrements += e.ubDecs[w]
	}
}

// UpperBounds exposes Algorithm 5 for analysis (Table 4): the core-index
// upper bound of every vertex. workers ≤ 0 selects NumCPU, h = 0 selects
// the default distance threshold 2 (matching Options.withDefaults, as
// this helper always did). A nil graph — or a negative h — yields an
// empty slice; UpperBoundsCtx reports those as typed errors instead.
func UpperBounds(g *graph.Graph, h, workers int) []int32 {
	if h == 0 {
		h = 2
	}
	out, err := UpperBoundsCtx(context.Background(), g, h, workers)
	if err != nil {
		return []int32{}
	}
	return out
}

// UpperBoundsCtx is UpperBounds with cooperative cancellation and the
// typed-error contract: ErrNilGraph for a nil graph, ErrInvalidH for
// h < 1, and an ErrCanceled wrap when ctx cancels the implicit power-graph
// peel (whose O(n) h-BFS runs make this the expensive analysis helper).
func UpperBoundsCtx(ctx context.Context, g *graph.Graph, h, workers int) ([]int32, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: UpperBounds", ErrNilGraph)
	}
	if h < 1 {
		return nil, fmt.Errorf("%w: h=%d (need h ≥ 1)", ErrInvalidH, h)
	}
	e := NewEngine(g, workers)
	defer e.Close()
	e.cancel.bindRun(ctx)
	if e.cancel.stop() {
		return nil, CanceledError(ctx)
	}
	e.beginRun(Options{H: h}.withDefaults())
	e.degH = growInt32(e.degH, g.NumVertices())
	e.pool.HDegrees(e.allVerts(), e.h, e.alive0(), e.degH)
	out := make([]int32, g.NumVertices())
	copy(out, e.upperBoundsInto(e.degH))
	if e.cancel.stop() {
		return nil, CanceledError(ctx)
	}
	return out, nil
}

// PowerPeelingOrder runs Algorithm 5 and returns the order in which the
// implicit power-graph peeling removes the vertices — a degeneracy
// ordering of G^h — together with the per-vertex upper bounds. Coloring
// greedily in the reverse of this order uses at most 1 + max(ub) colors
// (the Szekeres–Wilf bound on G^h); see the chromatic package. h = 0
// selects the default distance threshold 2; a nil graph or negative h
// yields empty results — PowerPeelingOrderCtx reports those as typed
// errors instead.
func PowerPeelingOrder(g *graph.Graph, h, workers int) (order []int, ub []int32) {
	if h == 0 {
		h = 2
	}
	order, ub, err := PowerPeelingOrderCtx(context.Background(), g, h, workers)
	if err != nil {
		return []int{}, []int32{}
	}
	return order, ub
}

// PowerPeelingOrderCtx is PowerPeelingOrder with cooperative cancellation
// and the typed-error contract (ErrNilGraph, ErrInvalidH for h < 1, an
// ErrCanceled wrap when ctx fires mid-peel). It shares powerPeelSerial
// with the upper-bound path — the peeling order is the serial pop order,
// which a level-synchronous schedule cannot reproduce, so this helper
// always runs the serial loop (with its decrement accounting and
// amortized cancellation polls) regardless of worker count.
func PowerPeelingOrderCtx(ctx context.Context, g *graph.Graph, h, workers int) ([]int, []int32, error) {
	if g == nil {
		return nil, nil, fmt.Errorf("%w: PowerPeelingOrder", ErrNilGraph)
	}
	if h < 1 {
		return nil, nil, fmt.Errorf("%w: h=%d (need h ≥ 1)", ErrInvalidH, h)
	}
	e := NewEngine(g, workers)
	defer e.Close()
	e.cancel.bindRun(ctx)
	if e.cancel.stop() {
		return nil, nil, CanceledError(ctx)
	}
	e.beginRun(Options{H: h}.withDefaults())
	n := g.NumVertices()
	e.degH = growInt32(e.degH, n)
	e.pool.HDegrees(e.allVerts(), e.h, e.alive0(), e.degH)
	if e.cancel.stop() {
		return nil, nil, CanceledError(ctx)
	}
	q := e.powerPeelInit(e.degH)
	order := e.powerPeelSerial(e.ub, e.ubdeg, q, make([]int, 0, n))
	if e.cancel.stop() {
		return nil, nil, CanceledError(ctx)
	}
	ub := make([]int32, n)
	copy(ub, e.ub)
	return order, ub, nil
}
