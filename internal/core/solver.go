package core

import (
	"sync/atomic"

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
	core  []int32
	h     int
	slack int // lazy-recount headroom (Options.LazyCapSlack)
	stats Stats
	// cancel is the engine's per-run cancellation broadcast; the peeling
	// and cleaning loops poll it, amortized by cancelCheckMask.
	cancel *cancelState
	// bcast, when non-nil, is the engine's lock-free settled-vertex
	// broadcast (parallel h-LB+UB only): bcast[v] = core(v)+1 once any
	// solver settles v, 0 while unpublished. Solvers publish their own
	// settles and read other intervals' to convert already-settled
	// vertices straight into carriers — the concurrent analogue of the
	// sequential carry. Reads are monotone hints: a slot moves 0 → final
	// value exactly once, so a load returns either the true settled index
	// or a miss that merely forfeits the shortcut. nil outside a parallel
	// fan-out (bind clears it; runIntervalsParallel re-attaches it).
	bcast []int32

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
	// capped marks vertices whose deg entry is a truncated (early-exited)
	// h-degree: a lower bound on the true value. Capped entries are still
	// decrement-tracked — a decrement keeps a lower bound a lower bound —
	// and are re-counted (with a fresh cap) when the peeling frontier pops
	// them, settling only on an exact count. See coreDecomp.
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
func (s *partitionSolver) bind(g *graph.Graph, core []int32, h, slack int, pool *hbfs.Pool, cancel *cancelState) {
	n := g.NumVertices()
	s.g = g
	s.core = core
	s.h = h
	s.slack = slack
	s.pool = pool
	s.cancel = cancel
	s.bcast = nil // re-attached per fan-out by runIntervalsParallel
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

// seedQueue seeds the bucket queue for one interval (Algorithm 4 lines
// 15–17), after improveLB has cleaned the partition. Carriers — vertices
// provably settling above kmax — sit at a key above every level this
// interval peels, so they contribute distances but are never re-processed:
// with carryAssigned (the serial path) a carrier is a vertex settled by a
// higher interval, keyed at its final core index; without it (a parallel
// solver, which cannot see other intervals' settles) a carrier is a vertex
// whose LB3 already exceeds kmax, keyed at that bound. Unsettled vertices
// whose h-degree survived the cleaning untouched are seeded with that
// exact degree (saving the lazy re-computation); cleaning-affected ones
// fall back to their best lower bound with the lazy flag raised — and
// truncated counts keep the capped flag up, so the peeling re-counts them
// on demand.
//
//khcore:hotpath
//khcore:vset-caller-epoch setLB
func (s *partitionSolver) seedQueue(kmin, kmax int, carryAssigned bool) {
	s.q.Clear()
	for _, v := range s.part {
		if !s.alive.Contains(int(v)) {
			continue
		}
		carrier, key := false, 0
		if carryAssigned {
			if s.assigned.Contains(int(v)) {
				carrier = true
				key = int(s.core[v])
				if int(s.lb3[v]) > key {
					key = int(s.lb3[v])
				}
			}
		} else {
			// A parallel solver cannot see its own engine-mates' settles
			// through `assigned`, but the broadcast may already carry the
			// exact core index a higher interval published — the same
			// carrier conversion the serial carry gets for free. A missed
			// publish just falls through to the LB3 test.
			if s.bcast != nil {
				if c := int(atomic.LoadInt32(&s.bcast[v])) - 1; c > kmax {
					carrier, key = true, c
				}
			}
			if !carrier && int(s.lb3[v]) > kmax {
				carrier = true
				key = int(s.lb3[v])
			}
		}
		switch {
		case carrier:
			s.setLB.Add(int(v))
			s.q.insert(int(v), key)
		case !s.dirty.Contains(int(v)):
			s.setLB.Remove(int(v))
			key = int(s.deg[v])
			if key < kmin-1 {
				key = kmin - 1
			}
			s.q.insert(int(v), key)
		default:
			s.setLB.Add(int(v))
			key = int(s.lb3[v])
			if key < kmin-1 {
				key = kmin - 1
			}
			s.q.insert(int(v), key)
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
	s.seedQueue(kmin, kmax, false)
	s.coreDecomp(kmin, kmax)
}

// coreDecomp is Algorithm 3: peel buckets kmin-1 .. kmax, assigning core
// indices in [kmin, kmax]. Vertices popped with the setLB or capped flag
// raised get their h-degree counted lazily — truncated at k+1+slack, since
// a count that reaches the cap already proves the vertex lies above the
// frontier — and are re-bucketed; vertices popped with a known exact
// h-degree are settled at the current level and removed, updating only
// neighbors whose h-degree is being tracked (setLB false) — with the O(1)
// decrement shortcut for neighbors at distance exactly h.
//
// Soundness of the truncated counts: a capped deg entry is a lower bound
// on the true h-degree, and decrements preserve that, so a vertex's bucket
// key ≥ k implies either a sound core lower bound ≥ k (setLB) or a true
// h-degree ≥ min(key, deg entry) — the frontier never advances past a
// vertex whose true h-degree it should have caught, and a vertex is only
// ever settled after an exact (un-truncated) count at the frontier.
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
				// Before paying a truncated recount, consult the broadcast:
				// a higher interval may have settled v mid-peel (its true
				// core exceeds kmax, so this interval could never settle it
				// — only re-count it at every level it gets parked at).
				// Converting it into a carrier above kmax keeps it alive as
				// a distance carrier while removeAndUpdate skips it from
				// now on, exactly like a seedQueue-time carrier.
				if s.bcast != nil {
					if c := int(atomic.LoadInt32(&s.bcast[v])) - 1; c > kmax {
						s.setLB.Add(v)
						s.capped.Remove(v)
						s.q.insert(v, c)
						continue
					}
				}
				// Lazily count the h-degree w.r.t. the alive set, but only
				// far enough to place v relative to the frontier.
				cap := k + 1 + s.slack
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
				if s.bcast != nil {
					// Publish for lower intervals still peeling: they may
					// now carrier-convert v instead of re-processing it.
					atomic.StoreInt32(&s.bcast[v], int32(k)+1)
				}
			}
			s.setLB.Add(v)
			s.removeAndUpdate(v, k)
		}
	}
}

// removeAndUpdate deletes v from the alive set and refreshes the h-degrees
// of its h-neighborhood in O(1) per neighbor: neighbors on the distance-h
// shell lose exactly one h-neighbor (v itself) and are decremented, while
// neighbors in the interior (distance < h) — whose loss cannot be told
// without a recount — are "parked": moved to the current frontier bucket
// with the capped flag raised, so the peeling loop re-counts them lazily
// when it pops them. Re-parking an already-parked vertex is free, and a
// recount costs at most cap discoveries, so what used to be one full
// batched recount per removal becomes at most one truncated recount per
// park. A parked vertex sits at the frontier, so it is always re-counted
// before the frontier can advance past it — the key-soundness invariant
// of coreDecomp is untouched.
// Neighbors with setLB raised (lower bound only, or already settled) are
// skipped entirely — that is the saving h-LB and h-LB+UB are built on.
//
//khcore:hotpath
//khcore:vset-caller-epoch alive capped
func (s *partitionSolver) removeAndUpdate(v, k int) {
	verts, shellStart := s.t.Ball(v, s.h, s.alive)
	s.alive.Remove(v)
	for i, u := range verts {
		ui := int(u)
		if s.setLB.Contains(ui) || !s.q.Contains(ui) {
			continue
		}
		if i < shellStart {
			s.deg[u] = int32(k)
			s.capped.Add(ui)
			s.q.move(ui, k)
		} else {
			s.deg[u]--
			s.stats.Decrements++
			nk := int(s.deg[u])
			if nk < k {
				nk = k
			}
			s.q.move(ui, nk)
		}
	}
}
