package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/incr"
)

// Maintainer keeps a (k,h)-core decomposition current across edge
// insertions and deletions. Updates are *localized*: internal/incr
// computes the dirty region of an edit batch — a superset of the
// vertices whose core index can change, closed under the direction-aware
// propagation rule (an insert's effects climb the core order, a delete's
// descend it) — and Engine.repairRegionCtx re-peels that region exactly,
// pinning the distance-≤h boundary at its unchanged indices, then
// splices the repaired values into the published array. The result after
// every update is bit-identical to a from-scratch decomposition; the
// cost is proportional to the dirty region, not the graph.
//
// ApplyBatch coalesces a whole batch into one repair: edits whose
// regions overlap share a single peel, and the repair runs once per
// batch rather than once per edit. When the coalesced region (plus
// boundary) grows past half the graph the maintainer falls back to one
// warm full re-decomposition — seeded with the carried indices as lower
// bounds (pure-insert batch) or upper bounds (pure-delete), the
// monotonicity facts the paper's framework makes available — so an
// adversarial batch never costs more than the from-scratch run it
// replaces.
//
// Cancellation invalidates only the dirty region: a canceled update
// leaves the published indices exactly as before the batch (the repair
// undoes its partial writes), records the batch and its partially
// discovered region as *pending*, and folds the pending region into the
// next update's repair — the carried values outside the pending region
// stay sound throughout. Stale reports the condition; Refresh repairs
// the pending region without applying new edits.
type Maintainer struct {
	h    int
	opts Options
	g    *graph.Graph
	eng  *Engine
	res  Result // reusable output buffer for full-run fallbacks
	core []int32
	// edges is the authoritative edge set, against which batches are
	// validated; the CSR graph is patched per batch with graph.Splice.
	edges map[[2]int32]struct{}
	n     int
	// incremental gates the localized-repair path; SetIncremental(false)
	// forces every update down the full re-decomposition fallback (the
	// rerun-per-edit baseline of BENCH_incr.json, and an operational
	// escape hatch).
	incremental bool
	finder      *incr.Finder
	lastStats   Stats

	// Pending-repair state of a canceled or panicked update. stale is
	// raised while an update's repair is in flight and cleared on
	// success; while it is raised, pendingEdits holds the edits already
	// applied to the graph whose repair is still owed, and pendingVerts
	// the dirty-region members discovered before the interruption. The
	// next update (or Refresh) seeds its region with both — tagged in
	// both directions, since the owed repair's direction information is
	// gone — so exactness is restored by one localized repair, not a
	// cold full run.
	stale        bool
	pendingEdits []incr.Edit
	pendingVerts []int32

	// Per-batch scratch, reused across updates.
	editKeys  [][2]int32
	editSkip  []bool
	overlay   map[[2]int32]bool
	spliceIns [][2]int32
	spliceDel [][2]int32
}

// NewMaintainer decomposes g once (cold) and prepares for updates.
func NewMaintainer(g *graph.Graph, h int, opts Options) (*Maintainer, error) {
	return NewMaintainerCtx(context.Background(), g, h, opts)
}

// NewMaintainerCtx is NewMaintainer with cooperative cancellation of the
// initial (cold) decomposition.
func NewMaintainerCtx(ctx context.Context, g *graph.Graph, h int, opts Options) (*Maintainer, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: NewMaintainer", ErrNilGraph)
	}
	if opts.Approx.Enabled {
		// Incremental maintenance carries exact bounds across updates;
		// seeding it from approximate indices would silently corrupt
		// every subsequent delta.
		return nil, fmt.Errorf("%w: approximate mode is not supported for dynamic maintenance", ErrInvalidApprox)
	}
	opts.H = h
	opts.Algorithm = HLBUB
	m := &Maintainer{
		h:           h,
		opts:        opts,
		g:           g,
		n:           g.NumVertices(),
		edges:       make(map[[2]int32]struct{}, g.NumEdges()),
		incremental: true,
		finder:      incr.NewFinder(),
		overlay:     make(map[[2]int32]bool),
	}
	m.eng = NewEngine(g, opts.Workers)
	if err := m.eng.DecomposeIntoCtx(ctx, &m.res, opts); err != nil {
		m.eng.Close()
		return nil, err
	}
	m.core = make([]int32, len(m.res.Core))
	for v, c := range m.res.Core {
		m.core[v] = int32(c)
	}
	m.lastStats = m.res.Stats
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < int(u) {
				m.edges[[2]int32{int32(v), int32(u)}] = struct{}{}
			}
		}
	}
	return m, nil
}

// Graph returns the current graph.
func (m *Maintainer) Graph() *graph.Graph { return m.g }

// Close releases the maintainer's engine and its h-BFS worker pool. The
// maintainer must not be used after Close.
func (m *Maintainer) Close() { m.eng.Close() }

// Stale reports whether an interrupted update left a dirty region whose
// repair is still owed. The published indices remain exact for the graph
// *before* the interrupted batch; Refresh (or any later successful
// update, which folds the pending region into its own repair) restores
// exactness for the current graph.
func (m *Maintainer) Stale() bool { return m.stale }

// SetIncremental enables or disables the localized-repair path. With it
// disabled every update runs a full (warm, seeded when sound)
// re-decomposition — the rerun-per-edit baseline. Enabled by default.
func (m *Maintainer) SetIncremental(on bool) { m.incremental = on }

// LastStats returns the work report of the most recent update (or of the
// initial decomposition when no update has run). Stats.Incr carries the
// region sizes and phase times of the incremental repair.
func (m *Maintainer) LastStats() Stats { return m.lastStats }

// Refresh repairs the pending dirty region left by a canceled update,
// without applying any new edits. It is a no-op when the maintainer is
// not stale.
func (m *Maintainer) Refresh(ctx context.Context) error {
	if !m.stale {
		return nil
	}
	return m.ApplyBatch(ctx, nil)
}

// Core returns the current core index of every vertex (a fresh slice).
func (m *Maintainer) Core() []int {
	out := make([]int, len(m.core))
	for v, c := range m.core {
		out[v] = int(c)
	}
	return out
}

// InsertEdge adds the undirected edge {u, v} (growing the vertex set if
// needed) and repairs the decomposition around it. Inserting a present
// edge returns ErrEdgeExists; a self-loop or negative endpoint returns
// ErrBadEdit.
func (m *Maintainer) InsertEdge(u, v int) error {
	return m.InsertEdgeCtx(context.Background(), u, v)
}

// InsertEdgeCtx is InsertEdge with cooperative cancellation; it is
// ApplyBatch with a single-edit batch, see there for the cancellation
// contract.
func (m *Maintainer) InsertEdgeCtx(ctx context.Context, u, v int) error {
	return m.ApplyBatch(ctx, []incr.Edit{{U: u, V: v, Op: incr.Insert}})
}

// DeleteEdge removes the undirected edge {u, v} and repairs the
// decomposition around it. Deleting a missing edge returns ErrNoSuchEdge;
// vertices are never removed.
func (m *Maintainer) DeleteEdge(u, v int) error {
	return m.DeleteEdgeCtx(context.Background(), u, v)
}

// DeleteEdgeCtx is DeleteEdge with cooperative cancellation.
func (m *Maintainer) DeleteEdgeCtx(ctx context.Context, u, v int) error {
	return m.ApplyBatch(ctx, []incr.Edit{{U: u, V: v, Op: incr.Delete}})
}

// ApplyBatch applies a batch of edge edits as one sequential transaction
// and repairs the decomposition once for the whole batch: edits are
// validated in order against the evolving edge set (so an insert
// followed by a delete of the same edge is a legal no-op pair), their
// dirty regions are coalesced — one repair per batch, with connected
// regions counted in Stats.Incr.Regions — and a single localized re-peel
// (or, past the size threshold, one warm full run) restores exactness.
//
// Validation is all-or-nothing: any invalid edit (ErrEdgeExists,
// ErrNoSuchEdge, ErrBadEdit) rejects the whole batch before anything is
// applied. A batch interrupted after validation — canceled or panicked —
// leaves the edge set updated but the published indices describing the
// pre-batch graph, with the batch recorded as pending (see Stale); a
// retry of the same edits while stale treats already-applied edits as
// satisfied rather than duplicate. A panicking repair additionally
// replaces the maintainer's engine (its scratch is presumed corrupt) and
// returns an *EnginePanicError, matching the EnginePool contract.
func (m *Maintainer) ApplyBatch(ctx context.Context, edits []incr.Edit) (err error) {
	if len(edits) == 0 && !m.stale {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			// The engine's scratch is presumed corrupt mid-panic; replace
			// it wholesale. The edge set and graph are already consistent,
			// and the pending bookkeeping below was recorded before any
			// fault site, so the owed repair survives the swap.
			m.eng.Close()
			m.eng = NewEngine(m.g, m.opts.Workers)
			err = &EnginePanicError{Op: "ApplyBatch", Value: r, Stack: debug.Stack()}
		}
	}()
	if err := m.validateBatch(edits); err != nil {
		return err
	}
	start := time.Now()
	wasStale, prevPending := m.stale, len(m.pendingEdits)
	newN := m.n
	inserts, deletes := 0, 0
	for i, e := range edits {
		if m.editSkip[i] {
			continue
		}
		if e.Op == incr.Insert {
			inserts++
			if int(m.editKeys[i][1]) >= newN {
				newN = int(m.editKeys[i][1]) + 1
			}
		} else {
			deletes++
		}
	}

	f := m.finder
	f.Reset(newN)
	seedStart := time.Now()
	// Delete seeds run on the old graph — the paths that vanish with a
	// deleted edge exist only there.
	for i, e := range edits {
		if !m.editSkip[i] && e.Op == incr.Delete {
			f.SeedEdit(m.g, m.h, e, false, true)
		}
	}

	// Commit point: apply the batch to the edge set and record it as
	// pending. Every later phase is interruptible; the pending record is
	// what keeps an interruption sound.
	for i, e := range edits {
		if m.editSkip[i] {
			continue
		}
		if e.Op == incr.Insert {
			m.edges[m.editKeys[i]] = struct{}{}
		} else {
			delete(m.edges, m.editKeys[i])
		}
	}
	m.n = newN
	m.stale = true
	m.pendingEdits = append(m.pendingEdits, edits...)
	m.splice(edits)
	m.eng.Reset(m.g)
	for len(m.core) < newN {
		m.core = append(m.core, 0)
	}

	// Insert seeds run on the new graph — the paths an inserted edge
	// creates exist only there. Pending state from an earlier interrupted
	// batch folds in with both direction tags: its direction information
	// is gone, and both-ways is the sound superset.
	for i, e := range edits {
		if !m.editSkip[i] && e.Op == incr.Insert {
			f.SeedEdit(m.g, m.h, e, true, false)
		}
	}
	for _, e := range m.pendingEdits[:prevPending] {
		f.SeedEdit(m.g, m.h, e, true, true)
	}
	for _, v := range m.pendingVerts {
		f.SeedVertex(int(v), true, true)
	}
	seedDur := time.Since(seedStart)

	closureStart := time.Now()
	var region, boundary []int32
	localized := m.incremental
	if localized {
		if err := f.CloseRegionCtx(ctx, m.g, m.h, m.core); err != nil {
			m.deferPending(f)
			return CanceledError(ctx)
		}
		// Fallback when the region stops being local: past half the graph
		// a full warm run does less work than region bookkeeping saves.
		// The closure aborts itself at the same threshold (NonLocal), in
		// which case the region is incomplete and must not be repaired.
		if f.NonLocal() {
			localized = false
		} else {
			region = f.Region()
			boundary = f.Boundary()
			if 2*(len(region)+len(boundary)) >= newN {
				localized = false
			}
		}
	}
	closureDur := time.Since(closureStart)

	st := Stats{Incr: incr.Stats{
		Localized:    localized,
		Edits:        len(edits),
		Regions:      f.Regions(),
		RegionSize:   len(region),
		BoundarySize: len(boundary),
		PhaseSeed:    seedDur,
		PhaseClosure: closureDur,
	}}

	peelStart := time.Now()
	if localized {
		changed, err := m.eng.repairRegionCtx(ctx, m.core, region, boundary, m.h, m.opts)
		if err != nil {
			m.deferPending(f)
			return err
		}
		st.Incr.RepairedVertices = changed
		st.Visits = m.eng.stats.Visits
		st.HDegreeComputations = m.eng.stats.HDegreeComputations
		st.Decrements = m.eng.stats.Decrements
	} else {
		if err := m.fullRedecompose(ctx, wasStale || prevPending > 0, inserts, deletes); err != nil {
			m.deferPending(f)
			return err
		}
		st.Visits = m.res.Stats.Visits
		st.HDegreeComputations = m.res.Stats.HDegreeComputations
		st.Decrements = m.res.Stats.Decrements
	}
	st.Incr.PhasePeel = time.Since(peelStart)
	st.Duration = time.Since(start)
	m.lastStats = st

	m.stale = false
	m.pendingEdits = m.pendingEdits[:0]
	m.pendingVerts = m.pendingVerts[:0]
	return nil
}

// validateBatch checks every edit against the edge set as the batch
// would evolve it (via the overlay), filling m.editKeys and m.editSkip.
// No state is mutated on error. An edit that a canceled earlier attempt
// already applied is marked skip: the retry completes the owed repair
// instead of failing as a duplicate.
func (m *Maintainer) validateBatch(edits []incr.Edit) error {
	if cap(m.editKeys) < len(edits) {
		m.editKeys = make([][2]int32, len(edits))
		m.editSkip = make([]bool, len(edits))
	}
	m.editKeys = m.editKeys[:len(edits)]
	m.editSkip = m.editSkip[:len(edits)]
	clear(m.overlay)
	for i, e := range edits {
		key, err := m.normalize(e.U, e.V)
		if err != nil {
			return err
		}
		m.editKeys[i] = key
		m.editSkip[i] = false
		present, overlaid := m.overlay[key]
		if !overlaid {
			_, present = m.edges[key]
		}
		switch e.Op {
		case incr.Insert:
			if present {
				if m.stale && !overlaid && m.pendingHas(key, incr.Insert) {
					m.editSkip[i] = true
					continue
				}
				return fmt.Errorf("%w: {%d,%d}", ErrEdgeExists, e.U, e.V)
			}
			m.overlay[key] = true
		case incr.Delete:
			if !present {
				if m.stale && !overlaid && m.pendingHas(key, incr.Delete) {
					m.editSkip[i] = true
					continue
				}
				return fmt.Errorf("%w: {%d,%d}", ErrNoSuchEdge, e.U, e.V)
			}
			m.overlay[key] = false
		default:
			return fmt.Errorf("%w: unknown op %d", ErrBadEdit, int(e.Op))
		}
	}
	return nil
}

// pendingHas reports whether the pending (already applied, repair owed)
// edits include this exact edit.
func (m *Maintainer) pendingHas(key [2]int32, op incr.Op) bool {
	for _, p := range m.pendingEdits {
		if p.Op != op {
			continue
		}
		if k, err := m.normalize(p.U, p.V); err == nil && k == key {
			return true
		}
	}
	return false
}

// deferPending records an interrupted update's partially discovered
// region so the next update (or Refresh) folds it into its own repair.
// The batch's edits are already in pendingEdits (appended at the commit
// point) and m.stale is already raised.
func (m *Maintainer) deferPending(f *incr.Finder) {
	m.pendingVerts = append(m.pendingVerts, f.Region()...)
}

// fullRedecompose is the non-localized fallback: one full run on the
// rebuilt graph, warm-seeded with the carried indices when they are
// sound for the batch's direction — previous indices lower-bound the new
// ones after pure insertion and upper-bound them after pure deletion —
// and cold when the batch mixes directions or carries pending state.
func (m *Maintainer) fullRedecompose(ctx context.Context, cold bool, inserts, deletes int) error {
	if !cold {
		switch {
		case inserts > 0 && deletes == 0:
			m.eng.seedLB = m.core
		case deletes > 0 && inserts == 0:
			m.eng.seedUB = m.core
		}
	}
	if err := m.eng.DecomposeIntoCtx(ctx, &m.res, m.opts); err != nil {
		return err
	}
	m.core = m.core[:0]
	for _, c := range m.res.Core {
		m.core = append(m.core, int32(c))
	}
	return nil
}

// normalize validates one edit's endpoints and returns its key, the pair
// ordered low to high. Vertex ids are int32 throughout the engine, so an
// id above math.MaxInt32 is rejected rather than wrapped onto another
// vertex.
func (m *Maintainer) normalize(u, v int) ([2]int32, error) {
	if u == v || u < 0 || v < 0 || u > math.MaxInt32 || v > math.MaxInt32 {
		return [2]int32{}, fmt.Errorf("%w: invalid edge {%d,%d}", ErrBadEdit, u, v)
	}
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}, nil
}

// splice rebinds m.g to the post-batch graph via graph.Splice — a linear
// CSR merge instead of an O(m log m) rebuild from the edge set, so the
// graph-update cost of a small batch is memory-bandwidth bound. The
// validated editKeys satisfy Splice's preconditions: normalized,
// duplicate-free, inserts absent from and deletes present in m.g
// (already-applied retry edits are marked skip and excluded).
func (m *Maintainer) splice(edits []incr.Edit) {
	// A batch may legally revisit a key (insert then delete the same
	// pair); Splice wants net effects, so cancel such pairs out. A valid
	// sequence alternates per key, leaving a net of -1, 0 or +1.
	net := make(map[[2]int32]int, len(edits))
	for i, e := range edits {
		if m.editSkip[i] {
			continue
		}
		if e.Op == incr.Insert {
			net[m.editKeys[i]]++
		} else {
			net[m.editKeys[i]]--
		}
	}
	ins, del := m.spliceIns[:0], m.spliceDel[:0]
	for i := range edits {
		if m.editSkip[i] {
			continue
		}
		k := m.editKeys[i]
		switch net[k] {
		case 1:
			ins = append(ins, k)
		case -1:
			del = append(del, k)
		}
		net[k] = 0 // each key contributes once
	}
	m.spliceIns, m.spliceDel = ins, del
	m.g = m.g.Splice(m.n, ins, del)
}
