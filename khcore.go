// Package khcore is a from-scratch Go implementation of
// "Distance-generalized Core Decomposition" (Bonchi, Khan, Severini —
// SIGMOD 2019). The (k,h)-core of a graph is the maximal subgraph in which
// every vertex has at least k other vertices within shortest-path distance
// h, computed inside the subgraph; for h = 1 it is the classic k-core.
//
// The package exposes:
//
//   - graph construction (Builder, FromEdges, ReadEdgeList) and the
//     deterministic generators used by the evaluation;
//   - the three decomposition algorithms of the paper (h-BZ, h-LB,
//     h-LB+UB) behind a single Decompose call, with the LB1/LB2/LB3 lower
//     bounds, the power-graph upper bound (Algorithm 5), top-down
//     partitioning (Algorithm 4) and multi-threaded h-BFS (§4.6);
//   - the paper's applications: distance-h coloring (§5.1), maximum
//     h-club with the Algorithm 7 core wrapper (§5.2), distance-h densest
//     subgraph (§5.3), cocktail-party community search (Appendix B) and
//     landmark selection for distance oracles (§6.6).
//
// Quick start:
//
//	g := khcore.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
//	res, err := khcore.Decompose(g, khcore.Options{H: 2})
//	if err != nil { ... }
//	fmt.Println(res.Core) // (k,2)-core index of every vertex
package khcore

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/incr"
)

// The typed errors of the serving contract. Every entry point wraps one of
// these, so callers dispatch with errors.Is instead of matching message
// strings:
//
//	res, err := khcore.DecomposeCtx(ctx, g, opts)
//	switch {
//	case errors.Is(err, khcore.ErrCanceled):        // ctx canceled or deadline hit
//	case errors.Is(err, khcore.ErrInvalidH):        // reject the request as malformed
//	case errors.Is(err, khcore.ErrBaselineGated):   // h-BZ without AllowBaseline
//	}
//
// ErrCanceled errors additionally wrap the context's own error, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) distinguish cancellation from timeout.
var (
	ErrNilGraph         = core.ErrNilGraph
	ErrInvalidH         = core.ErrInvalidH
	ErrUnknownAlgorithm = core.ErrUnknownAlgorithm
	ErrBaselineGated    = core.ErrBaselineGated
	ErrCanceled         = core.ErrCanceled
	ErrPoolClosed       = core.ErrPoolClosed
	ErrInvalidApprox    = core.ErrInvalidApprox
	ErrEnginePanic      = core.ErrEnginePanic
)

// The dynamic-maintenance edit sentinels. ErrBadEdit is the coarse
// class every malformed edge edit wraps (self-loop, negative endpoint,
// unknown op); ErrEdgeExists and ErrNoSuchEdge are the finer causes and
// wrap ErrBadEdit themselves, so errors.Is dispatch works at either
// granularity:
//
//	err := m.InsertEdge(u, v)
//	switch {
//	case errors.Is(err, khcore.ErrEdgeExists): // duplicate insert
//	case errors.Is(err, khcore.ErrNoSuchEdge): // delete of a missing edge
//	case errors.Is(err, khcore.ErrBadEdit):    // any other malformed edit
//	}
var (
	ErrBadEdit    = core.ErrBadEdit
	ErrEdgeExists = core.ErrEdgeExists
	ErrNoSuchEdge = core.ErrNoSuchEdge
)

// EnginePanicError is the concrete error behind ErrEnginePanic: a panic
// recovered at the EnginePool boundary, carrying the entry point, the
// panic value and the stack at the recovery point. The panicking engine
// is quarantined and its fleet slot rebuilt in the background, so the
// failing request is the only one affected — retrying is safe.
type EnginePanicError = core.EnginePanicError

// Graph is an immutable undirected, unweighted graph in compressed
// sparse-row form. Construct with NewBuilder, FromEdges or ReadEdgeList.
type Graph = graph.Graph

// Builder accumulates edges and assembles an immutable Graph; duplicate
// edges and self-loops are dropped.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with n vertices; AddEdge grows
// the vertex set as needed.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n vertices from undirected edge pairs.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a SNAP-style whitespace edge list ('#'/'%' comments
// allowed), compacting arbitrary non-negative vertex ids to 0..N-1 in
// first-appearance order; ids maps dense id back to the original.
func ReadEdgeList(r io.Reader) (g *Graph, ids []int64, err error) {
	return graph.ReadEdgeList(r)
}

// WriteEdgeList writes g as an edge list, one "u v" pair per line.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Algorithm selects the decomposition strategy of §4.
type Algorithm = core.Algorithm

// Decomposition algorithms (paper §4). HLBUB — the paper's fastest
// variant, and the only one whose peeling parallelizes across partitions —
// is the default (zero value). HBZ is the baseline: it is gated behind
// Options.AllowBaseline so no serving path reaches it by accident.
const (
	// HLBUB adds the power-graph upper bound and independent top-down
	// partitions (Algorithms 4–6); with at least two workers, GOMAXPROCS
	// > 1 and more than one planned partition, the partitions are peeled
	// concurrently. The default.
	HLBUB = core.HLBUB
	// HLB adds the LB2 lower bound with lazy h-degree computation
	// (Algorithms 2–3).
	HLB = core.HLB
	// HBZ is the distance-generalized Batagelj–Zaveršnik baseline
	// (Algorithm 1). Requires Options.AllowBaseline.
	HBZ = core.HBZ
)

// UpperBoundKind selects the upper bound h-LB+UB peels against
// (Options.UpperBound) — the Table 5 ablation axis.
type UpperBoundKind = core.UpperBoundKind

const (
	// PowerUB is the default Algorithm 5 power-graph bound.
	PowerUB = core.PowerUB
	// HDegreeUB substitutes the raw h-degree: no Algorithm 5 pass, at the
	// cost of looser partitions. `khexp table5` quantifies the trade.
	HDegreeUB = core.HDegreeUB
)

// Options configures Decompose; see core.Options for field semantics.
type Options = core.Options

// Result is a completed (k,h)-core decomposition: per-vertex core indices
// plus work statistics (h-BFS visits, h-degree computations, duration).
type Result = core.Result

// Stats describes the work a decomposition performed.
type Stats = core.Stats

// ApproxOptions configures the sampling-based approximate decomposition
// (Options.Approx): target relative error Epsilon, Confidence, the
// sampling Seed (equal seeds give bit-identical results at any worker
// count), and an optional explicit per-level SampleBudget. See
// core.ApproxOptions for the full error semantics.
type ApproxOptions = core.ApproxOptions

// ApproxStats is the quality report of an approximate run
// (Stats.Approx): resolved knobs, samples drawn, truncated frontiers,
// the advertised per-vertex error bound, and per-phase wall-times.
type ApproxStats = core.ApproxStats

// SampleBudgetFor derives the approximate mode's per-level expansion
// budget from a target relative error and confidence (the value
// ApproxOptions.SampleBudget = 0 resolves to).
func SampleBudgetFor(epsilon, confidence float64) int {
	return core.SampleBudgetFor(epsilon, confidence)
}

// Decompose computes the (k,h)-core decomposition of g. Options.H selects
// the distance threshold (default 2); Options.Algorithm the strategy
// (default HLBUB, the paper's fastest variant; the HBZ baseline requires
// Options.AllowBaseline); Options.Workers the h-BFS and partition-solver
// parallelism (default NumCPU). Each call allocates a fresh working set;
// callers that decompose repeatedly should hold an Engine (NewEngine)
// instead.
func Decompose(g *Graph, opts Options) (*Result, error) {
	return core.Decompose(g, opts)
}

// DecomposeCtx is Decompose with cooperative cancellation: the peeling
// loops, the partition work queue and the h-BFS batch workers poll ctx, so
// a canceled or expired context aborts the run promptly (well within one
// partition interval on the h-LB+UB path). The returned error wraps both
// ErrCanceled and ctx.Err(). This is the serving entry point for one-shot
// queries; repeated queries should go through an Engine or EnginePool.
func DecomposeCtx(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return core.DecomposeCtx(ctx, g, opts)
}

// Engine is a reusable decomposition context bound to one graph: it owns
// the h-BFS traversal pool and one solver arena per worker — the packed
// vertex sets, the bucket queue and every scratch array the algorithms
// need — and reuses all of it across runs. It is the recommended entry
// point for serving workloads: repeated Engine.DecomposeInto calls
// allocate nothing in the steady state, including on the parallel h-LB+UB
// path, where each package-level Decompose call rebuilds the whole
// working set. An Engine is NOT safe for concurrent use; under
// concurrency, multiplex callers over a fleet of engines with an
// EnginePool (the engine itself parallelizes internally across its
// workers). The ctx-aware methods (DecomposeCtx, DecomposeIntoCtx,
// DecomposeSpectrumCtx) add cooperative cancellation: a canceled run
// returns an ErrCanceled wrap and leaves the engine fully reusable — the
// next run produces results bit-identical to a fresh engine's.
type Engine = core.Engine

// NewEngine returns an Engine bound to g with an h-BFS worker pool of the
// given size (≤ 0 selects NumCPU). The pool size — which also caps the
// number of concurrent h-LB+UB partition solvers — is fixed for the
// engine's lifetime; Options.Workers is ignored by its methods. Close the
// engine when done with it: a multi-worker engine parks helper goroutines
// that nothing else stops.
func NewEngine(g *Graph, workers int) *Engine {
	return core.NewEngine(g, workers)
}

// EnginePool is the concurrent-safe serving front-end: a fixed fleet of
// Engines bound to one graph, multiplexing any number of caller goroutines
// through ctx-aware Acquire/Release (or the Decompose / DecomposeInto /
// DecomposeSpectrum conveniences that bracket them). Each engine keeps its
// pooled scratch across checkouts, so the per-engine zero-allocation
// steady state survives the multiplexing.
type EnginePool = core.EnginePool

// NewEnginePool builds a pool of `engines` Engines over g (engines ≤ 0
// selects NumCPU), each with an h-BFS worker pool of workersPerEngine
// (≤ 0 selects NumCPU). engines × workersPerEngine is the peak goroutine
// count: favor many single-worker engines for throughput under concurrent
// load, few wide engines for the latency of individual heavy queries.
func NewEnginePool(g *Graph, engines, workersPerEngine int) (*EnginePool, error) {
	return core.NewEnginePool(g, engines, workersPerEngine)
}

// HDegrees returns deg^h(v) — the number of vertices within distance h —
// for every vertex of g. workers ≤ 0 selects NumCPU. A nil graph yields an
// empty slice, like an empty graph.
func HDegrees(g *Graph, h, workers int) []int32 {
	return core.HDegrees(g, h, workers)
}

// LowerBounds returns the paper's LB1 and LB2 per-vertex lower bounds on
// the (k,h)-core index (Observations 1–2). A nil graph yields empty
// slices.
func LowerBounds(g *Graph, h, workers int) (lb1, lb2 []int32) {
	return core.LowerBounds(g, h, workers)
}

// UpperBounds returns the Algorithm 5 per-vertex upper bound on the
// (k,h)-core index — the classic core index of the power graph G^h,
// computed without materializing G^h. h = 0 selects the default threshold
// 2; a nil graph yields an empty slice. UpperBoundsCtx reports misuse as
// typed errors (and supports cancellation) instead.
func UpperBounds(g *Graph, h, workers int) []int32 {
	return core.UpperBounds(g, h, workers)
}

// UpperBoundsCtx is UpperBounds with cooperative cancellation and the
// typed-error contract (ErrNilGraph, ErrInvalidH, ErrCanceled) — the
// implicit power-graph peel runs one h-BFS per vertex, so serving paths
// should bound it with a deadline.
func UpperBoundsCtx(ctx context.Context, g *Graph, h, workers int) ([]int32, error) {
	return core.UpperBoundsCtx(ctx, g, h, workers)
}

// PowerPeelingOrder returns the order in which Algorithm 5 peels the
// vertices — a degeneracy ordering of the power graph G^h — together with
// the per-vertex upper bounds. Coloring greedily in the reverse of this
// order uses at most 1 + max(ub) colors (the basis of the h-chromatic
// application, §6.2). h = 0 selects the default threshold 2; a nil graph
// yields empty results.
func PowerPeelingOrder(g *Graph, h, workers int) (order []int, ub []int32) {
	return core.PowerPeelingOrder(g, h, workers)
}

// PowerPeelingOrderCtx is PowerPeelingOrder with cooperative cancellation
// and the typed-error contract (ErrNilGraph, ErrInvalidH, ErrCanceled) —
// like UpperBoundsCtx, the peel runs one h-BFS per vertex.
func PowerPeelingOrderCtx(ctx context.Context, g *Graph, h, workers int) ([]int, []int32, error) {
	return core.PowerPeelingOrderCtx(ctx, g, h, workers)
}

// Validate independently verifies that indices is a correct (k,h)-core
// decomposition of g (validity and maximality at every level). Intended
// for testing and for auditing third-party results; it is substantially
// slower than Decompose.
func Validate(g *Graph, h int, indices []int) error {
	return core.Validate(g, h, indices)
}

// ValidateCtx is Validate with cooperative cancellation: the verifier is
// O(n²) reference BFS runs in the worst case, so callers auditing
// untrusted results should bound it with a deadline. On cancellation the
// error wraps ErrCanceled and ctx.Err().
func ValidateCtx(ctx context.Context, g *Graph, h int, indices []int) error {
	return core.ValidateCtx(ctx, g, h, indices)
}

// Spectrum holds the (k,h)-core indices of every vertex for all
// h = 1..MaxH — the per-vertex structural "spectrum" proposed in the
// paper's §6.1/§7.
type Spectrum = core.Spectrum

// DecomposeSpectrum computes the decompositions for every h = 1..maxH in
// one pass, using each level's core indices as lower bounds for the next
// (the paper's future-work proposal: the (k,h−1)-core is contained in the
// (k,h)-core, so indices are monotone in h). All levels share one Engine
// scratch arena; use Engine.DecomposeSpectrum to also share it across
// repeated spectrum queries.
func DecomposeSpectrum(g *Graph, maxH int, opts Options) (*Spectrum, error) {
	return core.DecomposeSpectrum(g, maxH, opts)
}

// DecomposeSpectrumCtx is DecomposeSpectrum with cooperative cancellation:
// a deadline covers the whole h = 1..maxH sweep, with every level's run
// polling ctx at decomposition granularity.
func DecomposeSpectrumCtx(ctx context.Context, g *Graph, maxH int, opts Options) (*Spectrum, error) {
	return core.DecomposeSpectrumCtx(ctx, g, maxH, opts)
}

// EdgeEdit is one edge mutation — an undirected {U,V} pair plus an
// EditInsert or EditDelete op — for Maintainer.ApplyBatch.
type EdgeEdit = incr.Edit

// The EdgeEdit operations.
const (
	// EditInsert adds an undirected edge, growing the vertex set if an
	// endpoint is new.
	EditInsert = incr.Insert
	// EditDelete removes an undirected edge (vertices are never removed).
	EditDelete = incr.Delete
)

// IncrStats describes the incremental-repair work of one Maintainer
// update (Stats.Incr): whether the localized path ran, region and
// boundary sizes, the number of repaired vertices, and per-phase
// wall-times for seeding, region closure and the splice peel.
type IncrStats = incr.Stats

// Maintainer keeps a (k,h)-core decomposition current across edge
// insertions and deletions. Each update first tries a localized repair:
// it grows the dirty region around the edited edges (the vertices whose
// core index can change, certified by windowed gain/fall probes), pins
// the region's boundary at its unchanged indices, and re-peels only the
// region — bit-identical to a from-scratch decomposition. When the
// region stops being local (dense expanders at h ≥ 2, or a region
// covering half the graph) it falls back to a warm full re-decomposition
// (previous indices seed lower bounds after pure inserts, upper bounds
// after pure deletes). Results after every update are exact either way;
// LastStats().Incr reports which path ran and what it cost. The ctx
// variants cancel an update cooperatively: a canceled update leaves the
// edge set changed but the published indices describing the pre-edit
// graph, with the repair owed (Stale) and folded into the next update or
// Refresh.
type Maintainer = core.Maintainer

// NewMaintainer decomposes g once and prepares for dynamic edge updates.
func NewMaintainer(g *Graph, h int, opts Options) (*Maintainer, error) {
	return core.NewMaintainer(g, h, opts)
}

// NewMaintainerCtx is NewMaintainer with cooperative cancellation of the
// initial (cold) decomposition.
func NewMaintainerCtx(ctx context.Context, g *Graph, h int, opts Options) (*Maintainer, error) {
	return core.NewMaintainerCtx(ctx, g, h, opts)
}

// Hierarchy is the forest of nested connected core components; see
// core.BuildHierarchy.
type Hierarchy = core.Hierarchy

// HierarchyNode is one connected component of a (k,h)-core.
type HierarchyNode = core.HierarchyNode

// BuildHierarchy assembles the forest of nested (k,h)-core components
// from a decomposition — the dense-subgraph hierarchy of the
// Sariyüce–Pınar line of work the paper surveys (§2).
func BuildHierarchy(g *Graph, decomposition *Result) (*Hierarchy, error) {
	return core.BuildHierarchy(g, decomposition)
}
