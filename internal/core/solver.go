package core

import (
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/hbfs"
	"repro/internal/vset"
)

// partitionSolver is the per-partition peeling arena: every piece of
// mutable state one h-LB+UB interval (or one whole h-BZ / h-LB run) needs
// — the alive/settled/lazy-bound vertex sets, the h-degree and LB3 arrays,
// the bucket queue, the traversal scratch and the work counters. An Engine
// owns one solver per worker: solver 0 doubles as the sequential arena for
// h-BZ, h-LB and the single-worker h-LB+UB path, while the parallel
// h-LB+UB path hands each pool worker its own solver so concurrent
// intervals never share mutable state. The only cross-solver writes are
// the final core indices, which land in the shared core array at disjoint
// positions (each vertex's core index falls in exactly one interval).
type partitionSolver struct {
	g *graph.Graph
	// t is the solver's h-BFS traversal. The sequential solver borrows the
	// pool's worker-0 traversal; parallel solvers are handed the traversal
	// of the pool worker running them (see Pool.Run), so visit counts
	// always aggregate into the pool.
	t *hbfs.Traversal
	// pool, when non-nil, parallelizes the solver's batch h-degree sweeps.
	// Only the sequential solver sets it: a parallel solver runs inside a
	// Pool.Run job, where invoking the pool's batch kernels would deadlock
	// worker 0 — inter-interval concurrency replaces intra-batch
	// concurrency there.
	pool *hbfs.Pool
	// core is the engine's shared output array. Solvers write disjoint
	// entries: a vertex is settled by the one interval containing its core
	// index.
	core []int32
	h    int
	// pin, when positive, replaces headroom(k) at every level (the
	// Engine.fixedSlack test seam); zero applies the headroom rule.
	pin   int
	stats Stats
	// recounts tallies ImproveLB's suspect re-verifications over the
	// solver's lifetime (they also count in stats.HDegreeComputations).
	// Nothing in the engine reads it; tests do, to confirm that a
	// workload reaches the wave path.
	recounts int64
	// cancel is the engine's per-run cancellation broadcast; the peeling
	// and cleaning loops poll it, amortized by cancelCheckMask.
	cancel *cancelState

	// alive marks vertices present in the current (sub)graph.
	alive *vset.Set
	// assigned marks vertices whose core index is final.
	assigned *vset.Set
	// setLB mirrors the paper's flag: membership means only a lower bound
	// for the vertex is known (or the vertex is settled) and its h-degree
	// must not be touched by neighbor updates.
	setLB *vset.Set
	// dirty and inQueue serve the ImproveLB cleaning cascade.
	dirty   *vset.Set
	inQueue *vset.Set
	// capped marks vertices whose deg entry is only a lower bound on the
	// true h-degree: a truncated (early-exited) count, or an entry lowered
	// by removeAndUpdate's interior loss bound. Capped entries are still
	// update-tracked — a decrement or a bounded loss keeps a lower bound a
	// lower bound — and are re-counted (with a fresh cap) when the peeling
	// frontier pops them, settling only on an exact count. See coreDecomp.
	capped *vset.Set
	// pinned marks boundary carriers of a localized repair
	// (Engine.repairRegion): vertices whose core index is known to be
	// unchanged by the edit batch. They sit in the queue at that index so
	// region vertices see correct distances and removal order, but a pop
	// settles them immediately — no recount — and setLB keeps
	// removeAndUpdate's neighbor refresh off them. hasPinned gates the
	// extra pop-path check so the ordinary decomposition pays one branch.
	pinned    *vset.Set
	hasPinned bool

	// deg is the current h-degree of a vertex w.r.t. the alive set; it is
	// meaningful only while the vertex is outside setLB.
	deg []int32
	// lb3 is the per-vertex LB3 lower bound (Property 3). The sequential
	// h-LB+UB path seeds it from LB2 once per run and carries raises across
	// intervals; parallel solvers refresh their partition's entries from
	// the shared LB2 at every interval.
	lb3 []int32
	q   *bucketQueue

	// Scratch buffers, reused across runs.
	part     []int32 // current partition's members (HLBUB)
	cascade  []int32 // ImproveLB eviction stack
	suspects []int32 // ImproveLB capped dips awaiting the next re-verification wave
	rebuf    []int32 // batched h-degree recomputations after a removal (HBZ)
}

func newPartitionSolver() *partitionSolver {
	return &partitionSolver{
		alive:    vset.New(0),
		assigned: vset.New(0),
		setLB:    vset.New(0),
		dirty:    vset.New(0),
		inQueue:  vset.New(0),
		capped:   vset.New(0),
		pinned:   vset.New(0),
	}
}

// bind (re)attaches the solver to a graph and run configuration, clearing
// every set and sizing every array, reusing capacity whenever it suffices.
// pool is non-nil only for the sequential solver (see the field comment);
// when it is set the solver also borrows the pool's worker-0 traversal.
func (s *partitionSolver) bind(g *graph.Graph, core []int32, h, pin int, pool *hbfs.Pool, cancel *cancelState) {
	n := g.NumVertices()
	s.g = g
	s.core = core
	s.h = h
	s.pin = pin
	s.pool = pool
	s.cancel = cancel
	if pool != nil {
		s.t = pool.Traversal(0)
	}
	s.alive.Resize(n)
	s.assigned.Resize(n)
	s.setLB.Resize(n)
	s.dirty.Resize(n)
	s.inQueue.Resize(n)
	s.capped.Resize(n)
	s.pinned.Resize(n)
	s.hasPinned = false
	s.deg = growInt32(s.deg, n)
	s.lb3 = growInt32(s.lb3, n)
	// Pre-size the list scratch to the whole vertex set: which intervals a
	// solver claims varies between runs, so sizing lazily to the largest
	// partition seen would re-allocate whenever the schedule shifts —
	// capacity n makes the steady state allocation-free under any schedule.
	s.part = growInt32(s.part, n)[:0]
	s.cascade = growInt32(s.cascade, n)[:0]
	s.suspects = growInt32(s.suspects, n)[:0]
	if s.q == nil || s.q.n < n {
		s.q = newBucketQueue(n)
	} else {
		s.q.Clear()
	}
}

// headroom is how far above level k a truncated h-degree count runs
// before it stops: max(minHeadroom, k/8), or the pinned constant. A count
// that reaches its cap costs Θ(cap) discoveries and must be repeated once
// decrements or a rising frontier catch up with it, so headroom that
// grows with k spreads each recount over Θ(k) levels or decrements; a
// constant headroom buys only a constant number, which leaves nearly every
// count in the dense cores of high-k graphs capped.
func (s *partitionSolver) headroom(k int) int {
	if s.pin > 0 {
		return s.pin
	}
	return max(minHeadroom, k/8)
}

// hdegCappedBatch fills s.deg with min(deg^h, cap) for every vertex in
// verts — through the pool's parallel batch kernel for the sequential
// solver, or the solver's own traversal inside a parallel job — and
// returns the number of live sources evaluated.
//
//khcore:hotpath
func (s *partitionSolver) hdegCappedBatch(verts []int32, cap int) int64 {
	if s.pool != nil {
		return s.pool.HDegreesCapped(verts, s.h, s.alive, cap, s.deg)
	}
	var evaluated int64
	for i, v := range verts {
		if i&cancelCheckMask == 0 && s.cancel.stop() {
			break // abandoned run: the partial sweep is never read
		}
		if s.alive.Contains(int(v)) {
			evaluated++
		}
		s.deg[v] = int32(s.t.HDegreeCapped(int(v), s.h, s.alive, cap))
	}
	return evaluated
}

// buildPartition rebuilds the solver's alive set and partition list as
// V[kmin] = {v : ub(v) ≥ kmin} (Algorithm 4 line 12), reporting whether
// the partition is non-empty.
func (s *partitionSolver) buildPartition(kmin int, ub []int32) bool {
	n := s.g.NumVertices()
	s.part = s.part[:0]
	s.alive.Clear()
	for v := 0; v < n; v++ {
		if int(ub[v]) >= kmin {
			s.alive.Add(v)
			s.part = append(s.part, int32(v))
		}
	}
	return len(s.part) > 0
}

// carrierKey returns the best lower bound the solver holds on v's core
// index — max(LB3, v's final core index if this solver settled it) — and
// whether that bound makes v a carrier of an interval topped at kmax: a
// vertex provably settling above the interval, which the interval's
// cleaning (improveLB) and peel (seedQueue) never re-process. On the
// serial path intervals settle top-down, so every vertex above kmax is
// already assigned; a parallel solver claims intervals bottom-up, so its
// own settles all lie below kmin and only LB3 can make a carrier.
//
//khcore:hotpath
func (s *partitionSolver) carrierKey(v int32, kmax int) (int, bool) {
	key := int(s.lb3[v])
	if s.assigned.Contains(int(v)) && int(s.core[v]) > key {
		key = int(s.core[v])
	}
	return key, key > kmax
}

// seedQueue seeds the bucket queue for one interval (Algorithm 4 lines
// 15–17), after improveLB has cleaned the partition. Carriers (see
// carrierKey) sit at their key, above every level this interval peels,
// so they contribute distances but are never re-processed. Unsettled
// vertices whose h-degree survived the cleaning untouched are seeded with
// that exact degree (saving the lazy re-computation); cleaning-affected
// ones fall back to their best lower bound with the lazy flag raised —
// and truncated counts keep the capped flag up, so the peeling re-counts
// them on demand.
//
//khcore:hotpath
//khcore:vset-caller-epoch setLB
func (s *partitionSolver) seedQueue(kmin, kmax int) {
	s.q.Clear()
	for _, v := range s.part {
		if !s.alive.Contains(int(v)) {
			continue
		}
		key, carrier := s.carrierKey(v, kmax)
		switch {
		case carrier:
			s.setLB.Add(int(v))
			s.q.insert(int(v), key)
		case !s.dirty.Contains(int(v)):
			s.setLB.Remove(int(v))
			s.q.insert(int(v), max(int(s.deg[v]), kmin-1))
		default:
			s.setLB.Add(int(v))
			s.q.insert(int(v), max(key, kmin-1))
		}
	}
}

// solveInterval resolves one h-LB+UB interval [kmin, kmax] independently
// on the subgraph induced by V[kmin] (Observation 3): it rebuilds the
// solver's alive set and partition list from the shared upper bounds,
// refreshes LB3 from the shared LB2, cleans the partition with ImproveLB
// and peels levels kmin-1..kmax, writing the core index of every vertex
// the interval settles into the shared core array.
func (s *partitionSolver) solveInterval(kmin, kmax int, ub, lb2 []int32) {
	if !s.buildPartition(kmin, ub) {
		return
	}
	for _, v := range s.part {
		s.lb3[v] = lb2[v]
	}
	s.capped.Clear()
	s.setLB.Clear()
	s.improveLB(s.part, kmin, kmax)
	s.seedQueue(kmin, kmax)
	s.coreDecomp(kmin, kmax)
}

// coreDecomp is Algorithm 3: peel buckets kmin-1 .. kmax, assigning core
// indices in [kmin, kmax]. Vertices popped with the setLB or capped flag
// raised get their h-degree counted lazily — truncated at k+1+headroom(k),
// since a count that reaches the cap already proves the vertex lies above
// the frontier — and are re-bucketed; vertices popped with a known exact
// h-degree are settled at the current level and removed, updating only
// neighbors whose h-degree is being tracked (setLB false): an exact −1 on
// the distance-h shell, and the loss bound of removeAndUpdate in the
// interior.
//
// Invariant: every queue key is a lower bound. A tracked vertex's deg
// entry is its exact h-degree in the alive set (capped clear) or a lower
// bound on it (capped set: a truncated count, or an exact or bounded value
// lowered by a proven loss bound), and its key is max(deg, k); a setLB
// vertex's key is a sound lower bound on its core index. So a key above
// the frontier proves the vertex's true h-degree (or core index) lies
// above it too, and the frontier never passes a vertex it should have
// caught — the argument Batagelj and Zaveršnik give for peeling with
// lower-bound keys, provided a value is re-evaluated before its vertex
// settles. Here a vertex settles only on an exact count popped at the
// frontier (a pinned repair carrier, on its known index); a capped pop is
// re-counted first.
//
// Deviation from the paper's pseudocode (recorded here, where it occurs): lazy
// re-bucketing inserts at max(deg, k), not deg, because the recomputed
// h-degree can fall below the current level when same-core neighbors were
// peeled first; inserting below the frontier would orphan the vertex.
//
//khcore:hotpath
//khcore:peel
//khcore:vset-caller-epoch setLB capped assigned alive
func (s *partitionSolver) coreDecomp(kmin, kmax int) {
	start := kmin - 1
	if start < 0 {
		start = 0
	}
	if kmax > s.q.MaxKey() {
		kmax = s.q.MaxKey()
	}
	t := s.t
	ops := 0
	for k := start; k <= kmax; k++ {
		faultinject.Here(faultinject.PeelRound)
		for {
			if ops++; ops&cancelCheckMask == 0 && s.cancel.stop() {
				return // canceled mid-peel: the run is abandoned wholesale
			}
			v := s.q.PopFrom(k)
			if v < 0 {
				break
			}
			if s.setLB.Contains(v) || s.capped.Contains(v) {
				// A pinned boundary carrier (localized repair only) settles
				// at its bucket key — its core index is known unchanged, so
				// the recount below would be pure waste — while its removal
				// still feeds correct decrements into the region.
				if s.hasPinned && s.pinned.Contains(v) {
					s.removeAndUpdate(v, k)
					continue
				}
				// Lazily count the h-degree w.r.t. the alive set, but only
				// far enough to place v relative to the frontier.
				cap := k + 1 + s.headroom(k)
				d := t.HDegreeCapped(v, s.h, s.alive, cap)
				s.stats.HDegreeComputations++
				s.deg[v] = int32(d)
				s.setLB.Remove(v)
				if d >= cap {
					s.capped.Add(v)
				} else {
					s.capped.Remove(v)
				}
				if d < k {
					d = k
				}
				s.q.insert(v, d)
				continue
			}
			// Settle v at level k.
			if k >= kmin {
				s.core[v] = int32(k)
				s.assigned.Add(v)
			}
			s.setLB.Add(v)
			s.removeAndUpdate(v, k)
		}
	}
}

// removeAndUpdate deletes v from the alive set and refreshes the h-degree
// entries of its h-neighborhood in O(1) per neighbor, from one h-ball of v
// taken while v is still alive. A neighbor u at distance d from v loses
// the h-neighbors w that it reached within h only through v:
//
//   - on the distance-h shell (d = h) that is exactly one vertex, v
//     itself, so the entry is decremented and keeps its exactness;
//   - in the interior (d < h) it is at most |B_{h−d}(v)| − 1, where
//     B_r(v) is v's alive ball of radius r with v included. Every lost w
//     has all its ≤ h paths from u through v, so d(v, w) ≤ h − d; and
//     one member of B_{h−d}(v) is never lost — the vertex p before v on a
//     shortest u–v path still reaches u within d − 1 ≤ h, or, when
//     d = 1, u itself, which is not its own h-neighbor. The entry drops
//     by that bound and becomes a lower bound (the capped flag), keyed at
//     max(bound, k): the frontier parks it at level k only once the
//     bound reaches k, and it is re-counted exactly when popped.
//
// The radius counts are the ball's level ends (hbfs LevelEnds), so the
// bound costs no search. Entries stay lower bounds on the true h-degree
// under both updates, which is the key invariant coreDecomp's soundness
// rests on. Neighbors with setLB raised (lower bound only, or already
// settled) are skipped entirely — that is the saving h-LB and h-LB+UB are
// built on. Only the shell's exact decrements count toward
// Stats.Decrements; the interior's bounded updates do not.
//
//khcore:hotpath
//khcore:vset-caller-epoch alive capped
func (s *partitionSolver) removeAndUpdate(v, k int) {
	verts, shellStart := s.t.Ball(v, s.h, s.alive)
	ends := s.t.LevelEnds()
	s.alive.Remove(v)
	// Interior blocks d = 1 .. min(h−1, R): verts[ends[d-1]-1 : ends[d]-1].
	// At h = 1 there is no interior and ends is never read.
	radius := len(ends) - 1
	for d := 1; d < s.h && d <= radius; d++ {
		loss := ends[min(s.h-d, radius)] - 1
		for _, u := range verts[ends[d-1]-1 : ends[d]-1] {
			ui := int(u)
			if s.setLB.Contains(ui) || !s.q.Contains(ui) {
				continue
			}
			b := max(s.deg[u]-loss, 0)
			s.deg[u] = b
			s.capped.Add(ui)
			s.q.move(ui, max(int(b), k))
		}
	}
	for _, u := range verts[shellStart:] {
		ui := int(u)
		if s.setLB.Contains(ui) || !s.q.Contains(ui) {
			continue
		}
		s.deg[u]--
		s.stats.Decrements++
		s.q.move(ui, max(int(s.deg[u]), k))
	}
}
