// Live-mutation surface of the serving daemon: POST /mutate applies edge
// edits through a khcore.Maintainer (localized repair when the dirty
// region stays local, warm full re-decomposition otherwise), rebinds the
// read-path engine fleet to the mutated graph, and advances the graph
// version that keys the exact-result cache. Reads and mutations share the
// admission controller; mutations additionally serialize among
// themselves — the maintainer is single-writer by design.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	khcore "repro"
)

// mutateEdit is the wire form of one edge edit.
type mutateEdit struct {
	Op string `json:"op"` // "insert" or "delete"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

// mutateRequest accepts both shapes of POST /mutate: a single edit
// inline ({"op":"insert","u":3,"v":17}) or a batch ({"edits":[...]}).
// Supplying both is rejected rather than guessed at.
type mutateRequest struct {
	mutateEdit
	Edits []mutateEdit `json:"edits"`
}

// mutateResponse reports what the update did: how many edits applied,
// whether the localized-repair path ran (vs. the full-re-decomposition
// fallback), the region geometry and per-phase costs when it did, and
// the new graph version readers observe.
type mutateResponse struct {
	Applied          int   `json:"applied"`
	Localized        bool  `json:"localized"`
	Regions          int   `json:"regions,omitempty"`
	RegionSize       int   `json:"regionSize,omitempty"`
	BoundarySize     int   `json:"boundarySize,omitempty"`
	RepairedVertices int   `json:"repairedVertices"`
	SeedMS           int64 `json:"seedMs"`
	ClosureMS        int64 `json:"closureMs"`
	PeelMS           int64 `json:"peelMs"`
	GraphVersion     int64 `json:"graphVersion"`
	Vertices         int   `json:"vertices"`
	Edges            int   `json:"edges"`
}

func (e mutateEdit) toEdit() (khcore.EdgeEdit, error) {
	switch e.Op {
	case "insert":
		return khcore.EdgeEdit{U: e.U, V: e.V, Op: khcore.EditInsert}, nil
	case "delete":
		return khcore.EdgeEdit{U: e.U, V: e.V, Op: khcore.EditDelete}, nil
	default:
		return khcore.EdgeEdit{}, fmt.Errorf("%w: op=%q (want insert or delete)", errBadRequest, e.Op)
	}
}

// handleMutate applies one edit or one batch. Validation is
// all-or-nothing (the Maintainer contract): any malformed edit —
// duplicate insert, delete of a missing edge, self-loop, a vertex id at
// or past the growth bound — rejects the whole batch with 400 before the
// graph changes. A deadline expiry mid-repair leaves the edge set
// changed but the published indices describing the pre-edit graph; the
// repair is owed (healthz reports Stale) and folds into the next
// mutation, so readers stay consistent — the engine fleet is only
// rebound after a completed repair.
func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Code: "bad_timeout"})
		return
	}
	defer cancel()
	var req mutateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	var edits []khcore.EdgeEdit
	switch {
	case len(req.Edits) > 0 && req.Op != "":
		writeErr(w, fmt.Errorf("%w: supply either a single op or an edits array, not both", errBadRequest))
		return
	case len(req.Edits) > 0:
		edits = make([]khcore.EdgeEdit, len(req.Edits))
		for i, e := range req.Edits {
			if edits[i], err = e.toEdit(); err != nil {
				writeErr(w, err)
				return
			}
		}
	default:
		e, err := req.mutateEdit.toEdit()
		if err != nil {
			writeErr(w, err)
			return
		}
		edits = []khcore.EdgeEdit{e}
	}

	// Mutations serialize: the maintainer is single-writer, and the
	// fleet rebind below must not interleave with another mutation's.
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	// Vertex growth is bounded by the request itself: a batch attaches at
	// most two new vertices per edit, so an id at or past n + 2·len(edits)
	// would only make the CSR splice allocate vertices no edit touches.
	limit := s.maint.Graph().NumVertices() + 2*len(edits)
	for _, e := range edits {
		if e.U >= limit || e.V >= limit {
			writeErr(w, fmt.Errorf("%w: edge {%d,%d}: vertex ids must be below %d (vertex count + 2 per edit)", errBadRequest, e.U, e.V, limit))
			return
		}
	}
	err = s.maint.ApplyBatch(ctx, edits)
	s.stale.Store(s.maint.Stale())
	if err != nil {
		writeErr(w, err)
		return
	}
	// The mutation is committed; the rebind must complete regardless of
	// the request's remaining deadline, or readers would keep serving the
	// pre-edit graph forever. It terminates: Reset waits only for
	// in-flight runs, each bounded by its own request deadline.
	newG := s.maint.Graph()
	if err := s.pool.Reset(context.Background(), newG); err != nil {
		writeErr(w, fmt.Errorf("rebinding engine fleet: %w", err))
		return
	}
	s.gp.Store(newG)
	ver := s.version.Add(1)
	// The maintainer's repaired indices ARE the exact decomposition at
	// the maintained h — refresh that cache entry in place; every other
	// (h, algo) entry is lazily invalidated by the version bump.
	st := s.maint.LastStats()
	s.cache.put(s.mutateH, khcore.HLBUB, ver, &khcore.Result{
		H:     s.mutateH,
		Core:  s.maint.Core(),
		Stats: st,
	})
	writeJSON(w, http.StatusOK, mutateResponse{
		Applied:          st.Incr.Edits,
		Localized:        st.Incr.Localized,
		Regions:          st.Incr.Regions,
		RegionSize:       st.Incr.RegionSize,
		BoundarySize:     st.Incr.BoundarySize,
		RepairedVertices: st.Incr.RepairedVertices,
		SeedMS:           st.Incr.PhaseSeed.Milliseconds(),
		ClosureMS:        st.Incr.PhaseClosure.Milliseconds(),
		PeelMS:           st.Incr.PhasePeel.Milliseconds(),
		GraphVersion:     ver,
		Vertices:         newG.NumVertices(),
		Edges:            newG.NumEdges(),
	})
}

// cacheKey identifies one exact-result population; the approximate tier
// is never cached (its answers are seed-dependent by request).
type cacheKey struct {
	h    int
	algo khcore.Algorithm
}

type cacheEntry struct {
	version int64
	res     *khcore.Result
}

// resultCache holds exact decomposition results per (h, algorithm),
// tagged with the graph version that produced them. A lookup under any
// other version misses, so a mutation invalidates every stale entry with
// one atomic version bump — no enumeration, no lock ordering against the
// mutation path. Entries are overwritten in place on refill, so the
// cache never exceeds one result per (h, algo) pair the server has seen.
type resultCache struct {
	mu sync.Mutex
	m  map[cacheKey]cacheEntry
}

func (c *resultCache) get(h int, algo khcore.Algorithm, version int64) (*khcore.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[cacheKey{h, algo}]
	if !ok || e.version != version {
		return nil, false
	}
	return e.res, true
}

func (c *resultCache) put(h int, algo khcore.Algorithm, version int64, res *khcore.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[cacheKey]cacheEntry)
	}
	c.m[cacheKey{h, algo}] = cacheEntry{version: version, res: res}
}

// refreshMaintained seeds the cache with the maintainer's indices at
// startup, so the first read at the maintained h is already a hit.
func (s *server) refreshMaintained() {
	s.cache.put(s.mutateH, khcore.HLBUB, s.version.Load(), &khcore.Result{
		H:     s.mutateH,
		Core:  s.maint.Core(),
		Stats: s.maint.LastStats(),
	})
}

// close releases the serving resources: the read fleet and the
// maintainer's private engine.
func (s *server) close() {
	s.pool.Close()
	s.maint.Close()
}
