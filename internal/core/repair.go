// Localized (k,h)-core repair: the engine-side half of the incremental
// maintenance subsystem. internal/incr computes the dirty region R of an
// edit batch and its boundary B (every vertex within distance h of R,
// provably unchanged); repairRegionCtx re-settles R exactly by replaying
// the peel on R ∪ B alone and splices the result into the published core
// array in place.
//
// Why the replay is exact (bit-identical to a from-scratch run): every
// distance-≤h path between region vertices passes only through vertices
// within distance h−1 of the region, i.e. through R ∪ B — so with the
// whole vertex set alive, the region's exact h-degrees, the decrements
// fed by removals, and the removal order at each level are identical to
// the from-scratch peel's. Boundary vertices enter the queue pinned at
// their (unchanged) core index: they settle on pop without a recount,
// contributing exactly the removals and decrements the from-scratch peel
// would have produced at that level, while vertices beyond the boundary
// are never queued and never touched — removeAndUpdate skips non-queued
// ball members. Region vertices settle only on exact counts, and exact
// peels are order-independent, so the spliced indices equal the unique
// core decomposition of the edited graph.
package core

import (
	"context"

	"repro/internal/faultinject"
)

// repairRegionCtx re-peels region exactly, treating boundary as pinned
// carriers, writing repaired indices into cores (the maintainer's
// published array, which must hold the pre-edit decomposition) and
// returning how many region vertices changed. On cancellation the
// region's pre-edit values are restored — only popped vertices write to
// cores, and a pinned pop's value is unchanged by construction, so the
// region snapshot is the complete undo — and the caller keeps serving
// the pre-edit indices while recording the region as pending.
//
// hdeg is the maintainer's raw h-degree cache for the edited graph
// (< 0 = unknown). The region's known entries seed the peel as they
// are; only the misses are counted, batched through the pool, and
// written back once the batch has finished uncanceled, so a complete
// cache stays complete and exact.
//
//khcore:vset-caller-epoch pinned setLB
func (e *Engine) repairRegionCtx(ctx context.Context, cores, hdeg []int32, region, boundary []int32, h int, opts Options) (int, error) {
	e.cancel.bindRun(ctx)
	defer e.cancel.release()
	if e.cancel.stop() {
		return 0, CanceledError(ctx)
	}
	opts = opts.withDefaults()
	e.h, e.opts = h, opts
	e.stats = Stats{}
	e.pool.ResetVisits()
	s := e.sv[0]
	s.bind(e.g, cores, h, e.fixedSlack, e.pool, &e.cancel)
	s.stats = Stats{}
	s.alive.Fill()
	// Snapshot the region's pre-edit indices: the undo log for a canceled
	// peel and the changed-vertex count afterwards.
	e.incrOld = growInt32(e.incrOld, len(region))
	for i, v := range region {
		e.incrOld[i] = cores[v]
	}
	// Exact h-degrees of the region against the full vertex set — the
	// h-BZ seeding invariant: cached entries as they are, the misses
	// batched through the pool.
	e.incrMiss = e.incrMiss[:0]
	for _, v := range region {
		if d := hdeg[v]; d >= 0 {
			s.deg[v] = d
		} else {
			e.incrMiss = append(e.incrMiss, v)
		}
	}
	s.stats.HDegreeComputations += e.pool.HDegrees(e.incrMiss, h, s.alive, s.deg)
	if e.cancel.stop() {
		return 0, CanceledError(ctx) // nothing written yet
	}
	for _, v := range e.incrMiss {
		hdeg[v] = s.deg[v]
	}
	faultinject.Here(faultinject.IncrSplice)
	kmax := 0
	for _, v := range region {
		d := int(s.deg[v])
		if d > kmax {
			kmax = d
		}
		s.q.insert(int(v), d)
	}
	s.hasPinned = len(boundary) > 0
	for _, x := range boundary {
		key := int(cores[x])
		s.pinned.Add(int(x))
		s.setLB.Add(int(x))
		if key > kmax {
			kmax = key
		}
		s.q.insert(int(x), key)
	}
	s.coreDecomp(0, kmax)
	s.hasPinned = false
	e.stats.absorb(&s.stats)
	e.stats.Visits = e.pool.Visits()
	if e.cancel.stop() {
		for i, v := range region {
			cores[v] = e.incrOld[i]
		}
		return 0, CanceledError(ctx)
	}
	changed := 0
	for i, v := range region {
		if cores[v] != e.incrOld[i] {
			changed++
		}
	}
	return changed, nil
}
