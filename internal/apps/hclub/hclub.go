// Package hclub implements the maximum h-club machinery of the paper's
// §5.2/§6.5: an h-club verifier, the DROP construction heuristic, two exact
// combinatorial solvers (whole-graph branch & bound standing in for DBC,
// and a neighborhood-iterative variant standing in for ITDBC — the paper's
// IP solvers require the Gurobi commercial solver), and Algorithm 7, which
// wraps any black-box solver with the (k,h)-core decomposition: every
// h-club of size k+1 lives inside the (k,h)-core (Theorem 3), so the
// search can start from the small innermost core and stop as soon as a
// club larger than the current core index is found.
package hclub

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hbfs"
	"repro/internal/vset"
)

// canceledErr is the serving contract's cancellation wrap (errors.Is
// matches both core.ErrCanceled and the context's own error), built by
// the one shared helper in internal/core.
func canceledErr(ctx context.Context) error { return core.CanceledError(ctx) }

// IsHClub reports whether the subgraph of g induced by the vertex set S
// has diameter at most h (Definition 5). Singleton sets are h-clubs; the
// empty set is not.
func IsHClub(g *graph.Graph, S []int, h int) bool {
	if len(S) == 0 {
		return false
	}
	if len(S) == 1 {
		return true
	}
	sub, _ := g.InducedSubgraph(S)
	n := sub.NumVertices()
	t := hbfs.NewTraversal(sub)
	for v := 0; v < n; v++ {
		if t.HDegree(v, h, nil) != n-1 {
			return false
		}
	}
	return true
}

// Options bounds the exact solvers.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes explored;
	// 0 means unlimited. When the cap is hit the solver returns its
	// incumbent with Exact=false.
	MaxNodes int64
	// Incumbent optionally seeds the search with a known h-club (vertex
	// ids of the solver's input graph); the solver then only looks for
	// strictly larger clubs. Algorithm 7 uses this to carry the best club
	// from inner cores into outer ones.
	Incumbent []int
	// MaxDuration caps the wall-clock time of a solver invocation
	// (0 = unlimited) — the analog of the paper's NT timeout entries.
	// On expiry the incumbent is returned with Exact=false.
	MaxDuration time.Duration

	// ctx carries the cancellation of the Ctx entry points into the
	// branch-and-bound search, including through the black-box Solver
	// signature (which predates context support and cannot change without
	// breaking Algorithm 7 plug-ins). Unexported: set via ExactCtx,
	// ExactIterativeCtx or WithCoresCtx.
	ctx context.Context
}

// Result is the outcome of a maximum h-club search.
type Result struct {
	// Club is the best h-club found (vertex ids of the input graph).
	Club []int
	// Exact is true when Club is provably maximum.
	Exact bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int64
	// SolverCalls counts black-box invocations (1 for the direct solvers;
	// one per core level for Algorithm 7).
	SolverCalls int
}

// Solver is a black-box maximum-h-club algorithm, the "A(G,h)" of
// Algorithm 7. It must return a maximum h-club of g (vertex ids of g)
// unless its node budget is exhausted.
type Solver func(g *graph.Graph, h int, opts Options) Result

// Drop is the classic construction heuristic (Bourjolly et al.): starting
// from the whole vertex set, repeatedly delete the vertex with the
// smallest h-degree in the current induced subgraph until an h-club
// remains. h-degrees are maintained incrementally, h-BZ style: a removal
// re-computes only the removed vertex's h-neighborhood (with the O(1)
// decrement for neighbors at distance exactly h), and the set is an
// h-club exactly when its minimum h-degree equals its size minus one.
// The result seeds the branch-and-bound incumbent.
func Drop(g *graph.Graph, h int) []int {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	alive := vset.New(n)
	alive.Fill()
	size := n
	t := hbfs.NewTraversal(g)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = t.HDegree(v, h, alive)
	}
	var nbuf []hbfs.VD
	for size > 1 {
		worst, worstDeg := -1, n+1
		for v := 0; v < n; v++ {
			if alive.Contains(v) && deg[v] < worstDeg {
				worst, worstDeg = v, deg[v]
			}
		}
		if worstDeg == size-1 {
			break // every member reaches all others: h-club
		}
		nbuf = t.Neighborhood(worst, h, alive, nbuf)
		alive.Remove(worst)
		size--
		for _, e := range nbuf {
			u := int(e.V)
			if int(e.D) < h {
				deg[u] = t.HDegree(u, h, alive)
			} else {
				deg[u]--
			}
		}
	}
	out := make([]int, 0, size)
	for v := 0; v < n; v++ {
		if alive.Contains(v) {
			out = append(out, v)
		}
	}
	if len(out) == 0 && n > 0 {
		out = append(out, 0)
	}
	return out
}

// Exact is the whole-graph exact solver (the DBC stand-in): a branch and
// bound over vertex-deletion decisions. At each node the candidate set is
// first peeled to the (|incumbent|, h)-core of its induced subgraph (a
// club beating the incumbent needs h-degree ≥ |incumbent| for every
// member); if the remainder is an h-club it becomes the incumbent,
// otherwise the search branches on excluding either endpoint of a
// farthest violating pair. Each connected component is solved separately.
func Exact(g *graph.Graph, h int, opts Options) Result {
	r, _ := exactSolve(g, h, opts, Drop(g, h))
	return r
}

// ExactCtx is Exact with cooperative cancellation: the branch and bound
// polls ctx alongside its wall-clock deadline. On cancellation the
// incumbent found so far is returned (Exact=false) together with an error
// wrapping core.ErrCanceled and ctx.Err().
func ExactCtx(ctx context.Context, g *graph.Graph, h int, opts Options) (Result, error) {
	if ctx != nil && ctx.Err() != nil {
		return Result{}, canceledErr(ctx) // dead on arrival
	}
	opts.ctx = ctx
	r, canceled := exactSolve(g, h, opts, Drop(g, h))
	if canceled {
		return r, canceledErr(ctx)
	}
	return r, nil
}

func exactSolve(g *graph.Graph, h int, opts Options, seed []int) (Result, bool) {
	n := g.NumVertices()
	if n == 0 {
		return Result{Exact: true, SolverCalls: 1}, false
	}
	if h < 1 {
		return Result{Club: []int{0}, Exact: true, SolverCalls: 1}, false
	}
	bb := &bnb{g: g, h: h, opts: opts, ctx: opts.ctx, trav: hbfs.NewTraversal(g)}
	if opts.MaxDuration > 0 {
		bb.deadline = time.Now().Add(opts.MaxDuration)
	}
	if len(opts.Incumbent) > len(seed) && IsHClub(g, opts.Incumbent, h) {
		seed = opts.Incumbent
	}
	if IsHClub(g, seed, h) {
		bb.best = append(bb.best, seed...)
	}
	labels, count := g.ConnectedComponents()
	for comp := 0; comp < count; comp++ {
		alive := vset.New(n)
		size := 0
		for v := 0; v < n; v++ {
			if labels[v] == int32(comp) {
				alive.Add(v)
				size++
			}
		}
		if size <= len(bb.best) {
			continue
		}
		bb.search(alive, size)
	}
	if len(bb.best) == 0 {
		bb.best = []int{0}
	}
	return Result{Club: bb.best, Exact: !bb.budgetHit, Nodes: bb.nodes, SolverCalls: 1}, bb.canceled
}

// bnb carries the branch-and-bound state.
type bnb struct {
	g         *graph.Graph
	h         int
	opts      Options
	ctx       context.Context // nil unless a Ctx entry point armed it
	trav      *hbfs.Traversal
	seen      *vset.Set // violatingPair reachability scratch
	best      []int
	nodes     int64
	budgetHit bool
	canceled  bool
	deadline  time.Time
}

// expired reports whether the wall-clock budget ran out or the context was
// canceled (both checked every 32 nodes to keep the clock and the context
// poll off the hot path).
func (b *bnb) expired() bool {
	if b.nodes%32 != 0 {
		return false
	}
	if b.ctx != nil && b.ctx.Err() != nil {
		b.canceled = true
		return true
	}
	return !b.deadline.IsZero() && time.Now().After(b.deadline)
}

//khcore:vset-caller-epoch
func (b *bnb) search(alive *vset.Set, size int) {
	if b.budgetHit {
		return
	}
	b.nodes++
	if (b.opts.MaxNodes > 0 && b.nodes > b.opts.MaxNodes) || b.expired() {
		b.budgetHit = true
		return
	}

	// Peel to the (|best|, h)-core of the candidate subgraph: every
	// member of a strictly larger club has h-degree ≥ len(best) inside
	// the club, hence inside any superset.
	size = b.peel(alive, size, len(b.best))
	if size <= len(b.best) {
		return
	}

	// Feasibility check: find a violating pair (or conclude h-club).
	u, v := b.violatingPair(alive, size)
	if u < 0 {
		// alive is an h-club larger than the incumbent.
		b.best = b.best[:0]
		alive.ForEach(func(w int) { b.best = append(b.best, w) })
		return
	}

	// Branch: any h-club within alive excludes u or excludes v.
	left := alive.Clone()
	left.Remove(u)
	b.search(left, size-1)

	right := alive // reuse: the right branch owns the set
	right.Remove(v)
	b.search(right, size-1)
}

// peel removes vertices with h-degree < bound inside G[alive] until a
// fixpoint, returning the remaining size.
func (b *bnb) peel(alive *vset.Set, size, bound int) int {
	if bound <= 0 {
		return size
	}
	for {
		removed := false
		for v := 0; v < b.g.NumVertices() && size > bound; v++ {
			if !alive.Contains(v) {
				continue
			}
			if b.trav.HDegree(v, b.h, alive) < bound {
				alive.Remove(v)
				size--
				removed = true
			}
		}
		if !removed || size <= bound {
			return size
		}
	}
}

// violatingPair returns a pair of alive vertices at induced distance > h,
// or (-1, -1) if the candidate set is an h-club.
func (b *bnb) violatingPair(alive *vset.Set, size int) (int, int) {
	n := b.g.NumVertices()
	if b.seen == nil || b.seen.Len() != n {
		b.seen = vset.New(n)
	}
	for u := 0; u < n; u++ {
		if !alive.Contains(u) {
			continue
		}
		b.seen.Clear()
		b.seen.Add(u)
		reached := 0
		b.trav.Visit(u, b.h, alive, func(w int32, d int32) {
			b.seen.Add(int(w))
			reached++
		})
		if reached != size-1 {
			for v := 0; v < n; v++ {
				if alive.Contains(v) && !b.seen.Contains(v) {
					return u, v
				}
			}
		}
	}
	return -1, -1
}

// ExactIterative is the neighborhood-decomposition exact solver (the ITDBC
// stand-in): any h-club containing v lies within v's closed h-neighborhood
// in G, so the maximum club is found by scanning vertices in
// ascending-h-degree order, solving the branch and bound inside
// N_G[v, h] ∪ {v}, and deleting v afterwards. Neighborhoods no larger than
// the incumbent are skipped outright.
func ExactIterative(g *graph.Graph, h int, opts Options) Result {
	r, _ := exactIterativeSolve(g, h, opts)
	return r
}

// ExactIterativeCtx is ExactIterative with cooperative cancellation; the
// contract matches ExactCtx.
func ExactIterativeCtx(ctx context.Context, g *graph.Graph, h int, opts Options) (Result, error) {
	if ctx != nil && ctx.Err() != nil {
		return Result{}, canceledErr(ctx) // dead on arrival
	}
	opts.ctx = ctx
	r, canceled := exactIterativeSolve(g, h, opts)
	if canceled {
		return r, canceledErr(ctx)
	}
	return r, nil
}

func exactIterativeSolve(g *graph.Graph, h int, opts Options) (Result, bool) {
	n := g.NumVertices()
	if n == 0 {
		return Result{Exact: true, SolverCalls: 1}, false
	}
	res := Result{SolverCalls: 1}
	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}
	best := Drop(g, h)
	if !IsHClub(g, best, h) {
		best = []int{0}
	}
	if len(opts.Incumbent) > len(best) && IsHClub(g, opts.Incumbent, h) {
		best = append([]int(nil), opts.Incumbent...)
	}
	alive := vset.New(n)
	alive.Fill()
	t := hbfs.NewTraversal(g)
	// Ascending h-degree order keeps the neighborhoods solved early small.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		degs[v] = t.HDegree(v, h, nil)
	}
	sort.Slice(order, func(a, b int) bool {
		if degs[order[a]] != degs[order[b]] {
			return degs[order[a]] < degs[order[b]]
		}
		return order[a] < order[b]
	})
	exact := true
	canceled := false
	for _, v := range order {
		if !alive.Contains(v) {
			continue
		}
		if opts.ctx != nil && opts.ctx.Err() != nil {
			exact = false
			canceled = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			exact = false
			break
		}
		// Closed h-neighborhood of v in the remaining graph.
		cand := []int{v}
		t.Visit(v, h, alive, func(w int32, d int32) { cand = append(cand, int(w)) })
		if len(cand) <= len(best) {
			alive.Remove(v)
			continue
		}
		sub, orig := g.InducedSubgraph(cand)
		// The incumbent's ids belong to g, not sub; only the budget (and
		// the cancellation context) is forwarded. The size-based pruning
		// still applies through `best` via the candidate-size skip above.
		r, subCanceled := exactSolve(sub, h, Options{MaxNodes: opts.MaxNodes, ctx: opts.ctx}, nil)
		res.Nodes += r.Nodes
		if !r.Exact {
			exact = false
		}
		if subCanceled {
			canceled = true
		}
		if len(r.Club) > len(best) {
			best = best[:0]
			for _, w := range r.Club {
				best = append(best, orig[w])
			}
		}
		alive.Remove(v)
	}
	res.Club = best
	res.Exact = exact
	return res, canceled
}

// WithCores is Algorithm 7: wrap a black-box maximum-h-club solver with
// the (k,h)-core decomposition. The search starts in the innermost core
// C_{k*}; if a club of size s > k_cur is found it is provably maximum
// (Theorem 3), otherwise the search widens to C_{min(k_cur−1, s)} and
// repeats. decomposition must be a (k,h)-core result for the same h.
func WithCores(g *graph.Graph, h int, decomposition *core.Result, solver Solver, opts Options) (Result, error) {
	return WithCoresCtx(context.Background(), g, h, decomposition, solver, opts)
}

// WithCoresCtx is WithCores (Algorithm 7) with cooperative cancellation:
// ctx is checked before every core level's solver call, and flows into the
// built-in solvers (Exact, ExactIterative) through Options, so the inner
// branch and bound aborts too. On cancellation the best club found so far
// is returned (Exact=false) with an error wrapping core.ErrCanceled.
func WithCoresCtx(ctx context.Context, g *graph.Graph, h int, decomposition *core.Result, solver Solver, opts Options) (Result, error) {
	if decomposition == nil {
		return Result{}, fmt.Errorf("%w: nil decomposition", ErrBadInput)
	}
	opts.ctx = ctx
	if decomposition.H != h {
		return Result{}, fmt.Errorf("%w: decomposition computed for h=%d, want h=%d", ErrBadInput, decomposition.H, h)
	}
	n := g.NumVertices()
	if n == 0 {
		return Result{Exact: true}, nil
	}
	var total Result
	sizes := decomposition.CoreSizes()
	kcur := decomposition.MaxCoreIndex()
	for {
		if ctx != nil && ctx.Err() != nil {
			total.Exact = false
			return total, canceledErr(ctx)
		}
		if len(total.Club) > kcur {
			// Theorem 3: a club of size > k_cur is globally maximum,
			// because any larger club would live inside C_{k_cur}.
			total.Exact = true
			return total, nil
		}
		verts := decomposition.CoreVertices(kcur)
		sub, orig := g.InducedSubgraph(verts)
		// Carry the best club from deeper cores as the incumbent: cores
		// are nested, so its members are present in this subgraph too.
		callOpts := opts
		if len(total.Club) > 0 {
			newID := make(map[int]int, len(orig))
			for i, ov := range orig {
				newID[ov] = i
			}
			callOpts.Incumbent = make([]int, 0, len(total.Club))
			for _, v := range total.Club {
				callOpts.Incumbent = append(callOpts.Incumbent, newID[v])
			}
		}
		r := solver(sub, h, callOpts)
		total.Nodes += r.Nodes
		total.SolverCalls++
		club := make([]int, 0, len(r.Club))
		for _, v := range r.Club {
			club = append(club, orig[v])
		}
		if len(club) > len(total.Club) {
			total.Club = club
		}
		if !r.Exact {
			total.Exact = false
			if ctx != nil && ctx.Err() != nil {
				// The inner solver gave up because the context fired, not
				// because its own budget ran out — report the cancellation.
				return total, canceledErr(ctx)
			}
			return total, nil
		}
		if kcur == 0 {
			// The whole graph was solved exactly.
			total.Exact = true
			return total, nil
		}
		if s := len(total.Club); s > 0 && s < kcur {
			kcur = s
		} else {
			kcur--
		}
		// Skip levels whose core is identical to the one just solved
		// (nested cores of equal size are the same vertex set).
		for kcur > 0 && sizes[kcur] == len(verts) {
			kcur--
		}
	}
}
