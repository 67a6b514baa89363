// Package core implements the distance-generalized (k,h)-core
// decomposition of Bonchi, Khan and Severini (SIGMOD 2019): the baseline
// h-BZ peeling (Algorithm 1), the lower-bound algorithm h-LB (Algorithms
// 2–3), and the partitioned top-down h-LB+UB (Algorithms 4–6), together
// with the LB1/LB2/LB3 lower bounds, the power-graph upper bound, a naive
// reference implementation and an independent result verifier.
//
// All three algorithms run inside an Engine — a long-lived decomposition
// context bound to a graph. The mutable peeling state (alive/settled
// vertex sets, h-degree and bound arrays, bucket queue, traversal scratch)
// lives in per-worker partitionSolver arenas owned by the Engine: solver 0
// serves the sequential algorithms, and the h-LB+UB partitions — which are
// independent by construction (Observation 3) — are resolved concurrently
// by one solver per pool worker when the engine's schedule decision is
// open (at least two pool workers and GOMAXPROCS > 1; see
// Engine.parallel) and more than one interval is planned.
// Repeated decompositions through one Engine allocate nothing in the
// steady state; the package-level Decompose is a thin wrapper that builds
// a throwaway Engine for one-shot callers.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/hbfs"
	"repro/internal/incr"
	"repro/internal/vset"
)

// Algorithm selects the decomposition strategy.
type Algorithm int

const (
	// HLBUB computes the LB2 lower and power-graph upper bounds and splits
	// the work into independent top-down partitions (Algorithms 4–6). It
	// is the paper's fastest variant, the only one whose peeling
	// parallelizes across partitions, and the default (zero value).
	HLBUB Algorithm = iota
	// HLB seeds the peeling with the LB2 lower bound so h-degrees are
	// computed lazily (Algorithms 2–3).
	HLB
	// HBZ is the distance-generalized Batagelj–Zaveršnik baseline
	// (Algorithm 1): every removal re-computes the h-degree of the whole
	// h-neighborhood. It is ~45× slower than HLBUB on the benchmark graph
	// and exists for the paper's ablations only, so running it requires
	// Options.AllowBaseline — nothing on a serving path should reach it by
	// accident.
	HBZ
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case HBZ:
		return "h-BZ"
	case HLB:
		return "h-LB"
	case HLBUB:
		return "h-LB+UB"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// LowerBoundKind selects the lower bound used by HLB (ablation for
// Table 5, left side).
type LowerBoundKind int

const (
	// LB2Bound is the default two-level bound of Observation 2.
	LB2Bound LowerBoundKind = iota
	// LB1Bound uses only Observation 1 (⌊h/2⌋-degree).
	LB1Bound
)

// UpperBoundKind selects the upper bound used by HLBUB (ablation for
// Table 5, right side).
type UpperBoundKind int

const (
	// PowerUB is the default: implicit peeling of the power graph G^h
	// (Algorithm 5).
	PowerUB UpperBoundKind = iota
	// HDegreeUB uses the raw h-degree as the upper bound.
	HDegreeUB
)

// minHeadroom is the floor of the headroom every truncated h-degree count
// adds above the level it must decide: a vertex popped at level k is
// counted up to k+1+headroom(k) (see partitionSolver.headroom). Zero
// headroom maximizes laziness but re-pops a capped vertex at every level;
// headroom lets vertices whose h-degree sits just above the frontier come
// out exact, so they ride the O(1) decrement path instead of paying
// another truncated BFS.
const minHeadroom = 16

// Options configures Decompose.
type Options struct {
	// H is the distance threshold (h ≥ 1). h = 1 reproduces the classic
	// core decomposition.
	H int
	// Algorithm selects HLBUB (default, the zero value), HLB or HBZ.
	Algorithm Algorithm
	// AllowBaseline must be set to run the HBZ baseline: it exists for the
	// paper's ablations and is ~45× slower than HLBUB, so selecting it
	// without this flag is an error rather than a silent performance cliff.
	AllowBaseline bool
	// Workers sizes the h-BFS worker pool AND the number of concurrent
	// h-LB+UB partition solvers; ≤ 0 selects NumCPU. An Engine fixes its
	// pool size at construction, so this field only matters for the
	// one-shot Decompose wrapper.
	Workers int
	// PartitionSize is the S parameter of Algorithm 4: how many distinct
	// upper-bound values each top-down partition spans. Each partition
	// pays one ImproveLB pass over its vertex set, so more partitions
	// cost more up-front work; ≤ 0 selects an adaptive split that balances
	// the estimated work per partition from the upper-bound histogram
	// (which is what makes the parallel partition peeling load-balance)
	// and never gives the top partition the largest upper bound alone. A
	// positive S is taken literally, S = 1 included.
	PartitionSize int
	// LowerBound and UpperBound select ablation variants (Table 5).
	LowerBound LowerBoundKind
	UpperBound UpperBoundKind
	// Approx switches the run to the sampling-based approximate
	// decomposition (see ApproxOptions). Requires the default HLBUB
	// algorithm; the result approximates the exact core indices with the
	// error semantics documented on ApproxOptions, and Stats.Approx
	// carries the run's quality report.
	Approx ApproxOptions
}

func (o Options) withDefaults() Options {
	if o.H == 0 {
		o.H = 2
	}
	if o.PartitionSize < 0 {
		o.PartitionSize = 0 // adaptive, resolved against the UB histogram in Algorithm 4
	}
	o.Approx = o.Approx.withDefaults()
	return o
}

// Stats records the work performed by a decomposition, mirroring the
// paper's efficiency metrics (Table 3).
type Stats struct {
	// Visits is the total number of vertices dequeued across every
	// h-bounded BFS — the paper's "number of computed point-to-point
	// distances".
	Visits int64
	// HDegreeComputations counts full h-degree (re-)computations.
	HDegreeComputations int64
	// Decrements counts O(1) exact h-degree decrements: distance-h
	// neighbors of a removed vertex in the h-LB / h-LB+UB peel, and every
	// update in Algorithm 5 / Algorithm 6 cleaning. The peel's bounded
	// updates of interior neighbors (distance < h), which lower an entry
	// by a loss bound and leave it a lower bound, are not counted.
	Decrements int64
	// Partitions is the number of top-down partitions processed (HLBUB).
	Partitions int
	// Duration is the wall-clock decomposition time.
	Duration time.Duration

	// Phase wall-times of the HLBUB pipeline (zero for HLB/HBZ, which
	// have no such split). Together they record the Amdahl decomposition
	// of a run directly: PhaseUpperBound is the Algorithm-5 prefix that
	// was fully serial before the level-synchronous peel, and
	// PhaseIntervals is the partition peeling that scales across workers.
	PhaseHDegrees    time.Duration
	PhaseLowerBounds time.Duration
	PhaseUpperBound  time.Duration
	PhaseIntervals   time.Duration

	// Approx is the quality report of an approximate run (zero for exact
	// runs; Approx.Enabled distinguishes the two).
	Approx ApproxStats

	// Incr describes the incremental update that produced this result
	// (zero for ordinary decompositions; set on the Stats returned by
	// Maintainer.LastStats after an edit batch).
	Incr incr.Stats
}

// absorb folds a solver's work counters into the aggregate and zeroes the
// source, so per-solver stats never double-count across runs.
func (st *Stats) absorb(o *Stats) {
	st.Visits += o.Visits
	st.HDegreeComputations += o.HDegreeComputations
	st.Decrements += o.Decrements
	st.Partitions += o.Partitions
	*o = Stats{}
}

// Result is a completed (k,h)-core decomposition.
type Result struct {
	// H is the distance threshold used.
	H int
	// Core holds the core index of every vertex: the maximum k such that
	// the vertex belongs to the (k,h)-core.
	Core []int
	// Stats describes the work performed.
	Stats Stats
}

// MaxCoreIndex returns the h-degeneracy Ĉh(G): the largest k with a
// non-empty (k,h)-core.
func (r *Result) MaxCoreIndex() int {
	max := 0
	for _, c := range r.Core {
		if c > max {
			max = c
		}
	}
	return max
}

// DistinctCores returns the number of distinct core indices among the
// vertices (the "number of distinct cores" column of Table 2).
func (r *Result) DistinctCores() int {
	seen := make(map[int]struct{})
	for _, c := range r.Core {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// CoreVertices returns the members of C_k (vertices with core index ≥ k)
// in ascending order.
func (r *Result) CoreVertices(k int) []int {
	verts := make([]int, 0)
	for v, c := range r.Core {
		if c >= k {
			verts = append(verts, v)
		}
	}
	return verts
}

// CoreSizes returns |C_k| for k = 0..MaxCoreIndex().
func (r *Result) CoreSizes() []int {
	max := r.MaxCoreIndex()
	sizes := make([]int, max+1)
	for _, c := range r.Core {
		sizes[c]++
	}
	// suffix-sum: |C_k| = #vertices with core ≥ k
	for k := max - 1; k >= 0; k-- {
		sizes[k] += sizes[k+1]
	}
	return sizes
}

// Histogram returns the number of vertices with core index exactly k, for
// k = 0..MaxCoreIndex().
func (r *Result) Histogram() []int {
	h := make([]int, r.MaxCoreIndex()+1)
	for _, c := range r.Core {
		h[c]++
	}
	return h
}

// Decompose computes the (k,h)-core decomposition of g with the configured
// algorithm. It returns an error for invalid options (wrapping the typed
// sentinels ErrNilGraph, ErrInvalidH, ErrUnknownAlgorithm and
// ErrBaselineGated); the empty graph yields an empty result. Each call
// builds a fresh Engine; callers that decompose repeatedly (serving
// workloads, parameter sweeps, dynamic maintenance) should hold a
// NewEngine — or, under concurrency, an EnginePool — instead.
func Decompose(g *graph.Graph, opts Options) (*Result, error) {
	return DecomposeCtx(context.Background(), g, opts)
}

// DecomposeCtx is Decompose with cooperative cancellation: the peeling
// loops, the partition work queue and the h-BFS batch workers all poll ctx
// (amortized over a few hundred units of work each), so canceling or
// timing out the context aborts the run promptly. The returned error then
// wraps both ErrCanceled and the context's own error.
func DecomposeCtx(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: Decompose", ErrNilGraph)
	}
	e := NewEngine(g, opts.Workers)
	defer e.Close()
	return e.DecomposeCtx(ctx, opts)
}

// interval is one top-down partition of Algorithm 4: core-index range
// [kmin, kmax], resolved on the subgraph induced by {v : UB(v) ≥ kmin}.
type interval struct {
	kmin, kmax int
}

// Engine is a long-lived decomposition context bound to one graph. It owns
// the h-BFS worker pool, the shared bound arrays, and one partitionSolver
// arena per pool worker — solver 0 doubles as the sequential scratch — and
// reuses all of it across runs, so repeated Decompose calls reach a
// zero steady-state allocation rate through DecomposeInto, including on
// the parallel h-LB+UB path. An Engine is NOT safe for concurrent use;
// create one per goroutine.
type Engine struct {
	g    *graph.Graph
	pool *hbfs.Pool
	// sv holds the per-worker solver arenas. sv[0] always exists and
	// serves the sequential algorithms; the rest are created on the first
	// parallel h-LB+UB run and then persist.
	sv []*partitionSolver

	core []int32

	// Scratch buffers, reused across runs.
	verts     []int32 // whole-vertex-set id list
	lbA       []int32 // lower-bound propagation double buffer
	lbB       []int32
	degH      []int32
	ub        []int32
	ubdeg     []int32
	ubvals    []int32 // distinct upper-bound values, descending
	ubcnt     []int32 // upper-bound histogram (vertices per distinct value)
	intervals []interval

	// Parallel interval dispatch: parJob is bound once at construction
	// (keeping repeat runs allocation-free) and reads the fields below,
	// which are set for the duration of one Pool.Run fan-out.
	parJob func(worker int, t *hbfs.Traversal)
	parUB  []int32
	parLB2 []int32
	// parSolvers is the bound fleet size for the current fan-out:
	// min(pool workers, interval count) — arenas beyond it are never
	// created and workers beyond it no-op.
	parSolvers int
	cursor     atomic.Int64

	// Level-synchronous parallel Algorithm-5 scratch: the current round's
	// frontier (the drained bucket), one touched-vertex list per pool
	// worker for the post-round re-bucket pass, and the ball callback —
	// bound once at construction, like parJob, to keep runs
	// allocation-free. ubStamp[v] holds the round that last claimed v for
	// re-bucketing (claimed by CAS, so each touched vertex lands in
	// exactly one worker's pending list and the serial re-bucket pass
	// processes unique vertices only), ubRound the current round number,
	// and ubDecs the per-worker decrement tallies (strided to keep the
	// hot counters off one cache line) that replace the per-entry
	// counting the deduplicated lists can no longer provide.
	ubFrontier []int32
	ubTouched  [][]int32
	ubStamp    []int32
	ubRound    int32
	ubDecs     []int64
	ubBallJob  hbfs.BallFunc

	// Approximate-peel scratch: per-vertex fractional decrement carry
	// (see approxPeel).
	approxResid []float64

	// incrOld is the localized-repair undo log: the dirty region's
	// pre-edit core indices, snapshot by repairRegionCtx (see repair.go).
	// incrMiss lists the region vertices whose h-degree the maintainer's
	// cache lacks.
	incrOld  []int32
	incrMiss []int32

	// parallel is the engine's one schedule decision, made when it binds
	// to a graph (NewEngine, Reset): whether Algorithm 5 runs the
	// level-synchronous peel and HLBUB drains its intervals concurrently.
	// Both need more than one pool worker and more than one schedulable
	// CPU — on GOMAXPROCS=1 the fan-out cost 20–45% end to end for no
	// gain, in a 1-CPU measurement made before khbench (the retired
	// BENCH_parallel.json, kept in the repository history) — unless
	// forceParallelSchedule is set.
	parallel bool

	// fixedSlack, when positive, pins the headroom of every truncated
	// count to one constant at every level, overriding the headroom rule.
	// It is a test seam: the ImproveLB wave tests use 1 to reach the
	// capped-dip path.
	fixedSlack int

	// Per-run state.
	h     int
	opts  Options
	stats Stats
	// seedLB optionally supplies an extra per-vertex lower bound on the
	// core index (used by DecomposeSpectrum: the core index at h−1 lower
	// bounds the one at h). nil when unused; consumed by one run.
	seedLB []int32
	// seedUB optionally supplies an extra per-vertex upper bound on the
	// core index (used by Maintainer after edge deletions: the previous
	// index bounds the new one from above). nil when unused.
	seedUB []int32

	// cancel is the cooperative-cancellation broadcast for the current
	// run, armed per run by DecomposeIntoCtx and polled by the peeling
	// loops, the interval work queue and (through the hook installed at
	// construction) the h-BFS pool workers.
	cancel cancelState
}

// forceParallelSchedule is the test hook of the schedule decision: while
// set, every multi-worker engine bound to a graph takes the concurrent
// paths even on a GOMAXPROCS=1 host, so single-core CI shards still run
// them.
var forceParallelSchedule bool

// NewEngine returns an Engine bound to g with a worker pool of the given
// size (≤ 0 selects NumCPU). The pool size also caps the number of
// concurrent h-LB+UB partition solvers.
func NewEngine(g *graph.Graph, workers int) *Engine {
	e := &Engine{
		pool: hbfs.NewPool(g, workers),
		sv:   []*partitionSolver{newPartitionSolver()},
	}
	e.parJob = func(worker int, t *hbfs.Traversal) {
		if worker >= e.parSolvers {
			return // more pool workers than intervals: nothing to claim
		}
		s := e.sv[worker]
		s.t = t
		n := len(e.intervals)
		for {
			if e.cancel.stop() {
				return // canceled: leave the rest of the queue unclaimed
			}
			i := int(e.cursor.Add(1)) - 1
			if i >= n {
				return
			}
			// Claim intervals bottom-up: the lowest intervals induce the
			// widest subgraphs and dominate the makespan, so they must
			// start first.
			iv := e.intervals[n-1-i]
			s.stats.Partitions++
			s.solveInterval(iv.kmin, iv.kmax, e.parUB, e.parLB2)
		}
	}
	// Ball callback of the level-synchronous Algorithm-5 rounds: decrement
	// the approximate h-degree of every still-queued member of a popped
	// vertex's h-ball and claim first-touched vertices into this worker's
	// pending list. The bucket queue is only probed (Contains is a plain
	// array read and the queue is not mutated during a fan-out), the
	// decrement is atomic because several balls may hit the same vertex,
	// and the round-stamp CAS gives every touched vertex exactly one list
	// slot — the stamp's only transition within a round is to the round
	// number, so a failed CAS always means another worker owns the vertex.
	// Decrement counts go to the worker's own tally; the callback stays
	// data-race-free by construction.
	e.ubTouched = make([][]int32, e.pool.Workers())
	e.ubDecs = make([]int64, e.pool.Workers()*ubDecStride)
	e.ubBallJob = func(worker int, v int32, ball []int32, shellStart int) {
		q := e.sv[0].q
		ubdeg := e.ubdeg
		round := e.ubRound
		touched := e.ubTouched[worker]
		var decs int64
		for _, nb := range ball {
			if !q.Contains(int(nb)) {
				continue
			}
			atomic.AddInt32(&ubdeg[nb], -1)
			decs++
			if prev := atomic.LoadInt32(&e.ubStamp[nb]); prev != round &&
				atomic.CompareAndSwapInt32(&e.ubStamp[nb], prev, round) {
				touched = append(touched, nb)
			}
		}
		e.ubTouched[worker] = touched
		e.ubDecs[worker*ubDecStride] += decs
	}
	// The batch workers poll the same broadcast between chunks, so a
	// canceled run drains the in-flight batch instead of finishing it; the
	// closure is bound once here to keep repeat runs allocation-free.
	e.pool.SetCancel(e.cancel.stop)
	e.Reset(g)
	return e
}

// Close retires the engine's h-BFS worker goroutines. Every engine with
// more than one worker must be closed once it is no longer needed: nothing
// else stops its parked helpers. The engine remains usable, running
// single-threaded afterwards.
func (e *Engine) Close() { e.pool.Close() }

// Graph returns the graph the engine is currently bound to.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Workers returns the size of the engine's h-BFS worker pool.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Reset re-binds the engine to g (which may differ in size from the
// previous graph), reusing every piece of scratch whose capacity suffices.
// The Maintainer calls this after each edge update. Solver arenas are
// re-bound lazily at the start of the next run.
func (e *Engine) Reset(g *graph.Graph) {
	e.g = g
	e.pool.Reset(g)
	e.parallel = e.pool.Workers() > 1 && (runtime.GOMAXPROCS(0) > 1 || forceParallelSchedule)
	e.core = growInt32(e.core, g.NumVertices())
	// The bound arrays (lbA/lbB/degH/ub/ubdeg) are algorithm-specific and
	// sized lazily at first use, so an engine that never runs HLBUB never
	// pays for its scratch.
}

// growInt32 returns s resized to length n, reusing capacity when possible.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growFloat64 is growInt32 for float64 scratch.
func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ubDecStride spaces the per-worker Algorithm-5 decrement tallies eight
// int64s apart so concurrent workers never bounce one cache line.
const ubDecStride = 8

// Decompose runs one (k,h)-core decomposition and returns a fresh Result.
// Options.Workers is ignored — the pool size was fixed by NewEngine.
func (e *Engine) Decompose(opts Options) (*Result, error) {
	return e.DecomposeCtx(context.Background(), opts)
}

// DecomposeCtx is Decompose with cooperative cancellation; see
// DecomposeIntoCtx for the cancellation contract.
func (e *Engine) DecomposeCtx(ctx context.Context, opts Options) (*Result, error) {
	res := &Result{}
	if err := e.DecomposeIntoCtx(ctx, res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// DecomposeInto runs one decomposition, writing the outcome into res and
// reusing res.Core's backing array when its capacity suffices — the
// zero-allocation path for repeated queries over one graph.
func (e *Engine) DecomposeInto(res *Result, opts Options) error {
	return e.DecomposeIntoCtx(context.Background(), res, opts)
}

// DecomposeIntoCtx is DecomposeInto with cooperative cancellation. The
// peeling loops (every algorithm), the Algorithm 5 upper-bound peel, the
// partition work queue and the h-BFS batch workers all poll ctx, each
// amortized over a few hundred units of real work, so a cancellation or
// deadline aborts the run well within one partition interval. A canceled
// run returns an error wrapping both ErrCanceled and ctx.Err(), leaves res
// untouched, and leaves the engine fully reusable: the next run re-derives
// every piece of state, producing results bit-identical to a fresh
// engine's. Contexts that can never be canceled (Background, TODO) add no
// work to the existing zero-allocation happy path. An h-LB+UB run that
// completes with a vertex unsettled — a peel fault, never a property of
// the input — returns an error wrapping ErrInvalidResult and likewise
// leaves res untouched.
func (e *Engine) DecomposeIntoCtx(ctx context.Context, res *Result, opts Options) error {
	defer e.clearSeeds()     // seeds apply to exactly one attempt, even a rejected one
	defer e.cancel.release() // don't pin the request's context while the engine idles
	opts = opts.withDefaults()
	if opts.H < 1 {
		return fmt.Errorf("%w: h=%d (need h ≥ 1)", ErrInvalidH, opts.H)
	}
	switch opts.Algorithm {
	case HBZ, HLB, HLBUB:
	default:
		return fmt.Errorf("%w: Algorithm(%d)", ErrUnknownAlgorithm, int(opts.Algorithm))
	}
	if opts.Algorithm == HBZ && !opts.AllowBaseline {
		return fmt.Errorf("%w: h-BZ is the paper's baseline and ~45× slower than h-LB+UB; "+
			"set Options.AllowBaseline to run it deliberately", ErrBaselineGated)
	}
	if opts.Approx.Enabled {
		if err := opts.Approx.validate(); err != nil {
			return err
		}
		if opts.Algorithm != HLBUB {
			return fmt.Errorf("%w: approximate mode requires the default h-LB+UB algorithm, got %s",
				ErrInvalidApprox, opts.Algorithm)
		}
	}
	e.cancel.bindRun(ctx)
	if e.cancel.stop() {
		return CanceledError(ctx) // dead on arrival: don't touch the engine state
	}
	start := time.Now()
	e.beginRun(opts)
	var runErr error
	switch {
	case opts.Approx.Enabled:
		e.runApprox()
	case opts.Algorithm == HBZ:
		e.runHBZ()
	case opts.Algorithm == HLB:
		e.runHLB()
	default:
		runErr = e.runHLBUB()
	}
	for _, s := range e.sv {
		e.stats.absorb(&s.stats)
	}
	if e.cancel.stop() {
		return CanceledError(ctx)
	}
	if runErr != nil {
		return runErr
	}
	n := e.g.NumVertices()
	if cap(res.Core) < n {
		res.Core = make([]int, n)
	} else {
		res.Core = res.Core[:n]
	}
	for v, c := range e.core {
		res.Core[v] = int(c)
	}
	res.H = opts.H
	res.Stats = e.stats
	res.Stats.Visits = e.pool.Visits()
	res.Stats.Duration = time.Since(start)
	return nil
}

// beginRun resets the per-run state: the sequential solver arena with a
// full alive set, zeroed core indices and counters.
func (e *Engine) beginRun(opts Options) {
	e.h = opts.H
	e.opts = opts
	e.stats = Stats{}
	e.pool.ResetVisits()
	s0 := e.sv[0]
	s0.bind(e.g, e.core, e.h, e.fixedSlack, e.pool, &e.cancel)
	s0.stats = Stats{}
	s0.alive.Fill()
	for i := range e.core {
		e.core[i] = 0
	}
}

func (e *Engine) clearSeeds() {
	e.seedLB, e.seedUB = nil, nil
}

// trav returns the sequential scratch traversal (worker 0 of the pool).
func (e *Engine) trav() *hbfs.Traversal { return e.pool.Traversal(0) }

// alive0 returns the sequential solver's alive set — the engine-level mask
// the batch phases run against.
func (e *Engine) alive0() *vset.Set { return e.sv[0].alive }

// allVerts fills and returns the whole-vertex-set scratch list 0..n-1.
func (e *Engine) allVerts() []int32 {
	n := e.g.NumVertices()
	e.verts = e.verts[:0]
	for v := 0; v < n; v++ {
		e.verts = append(e.verts, int32(v))
	}
	return e.verts
}

// mergeSeedLB raises lb in place with the cross-level seed bound, when set.
func (e *Engine) mergeSeedLB(lb []int32) []int32 {
	if e.seedLB == nil {
		return lb
	}
	for v := range lb {
		if e.seedLB[v] > lb[v] {
			lb[v] = e.seedLB[v]
		}
	}
	return lb
}
