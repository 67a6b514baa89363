// Package incr is the incremental-maintenance subsystem's region layer:
// given a batch of edge edits against a graph whose exact (k,h)-core
// decomposition is known, it computes the *dirty region* — a superset of
// the vertices whose core index may have changed — together with the
// *boundary* that insulates the region from the untouched remainder.
// The repair peel in internal/core then re-settles the region exactly,
// treating the boundary as pinned carriers, and splices the result into
// the published core array; everything outside region ∪ boundary is
// provably untouched and never visited.
//
// The region computation rests on four locality facts:
//
//   - a vertex's radius-h ball can only change if it lies within
//     distance h−1 of an edited endpoint (the new or removed path must
//     pass through the edge) — those vertices are the *seeds*;
//   - a core-index increase at w needs a cause within distance h whose
//     old index is ≤ w's (and symmetrically ≥ for a decrease) — the
//     distance-h generalization of Montresor et al.'s locality theorem
//     — so candidacy propagates only along direction-monotone chains
//     rooted at the seeds;
//   - a candidate only *admits* if a masked support probe says its index
//     can actually move. To rise past c it must lie in the new graph's
//     (c+1,h)-core, whose members all have old index > c or raw h-degree
//     > c: a one-shot test first counts such vertices within distance h
//     of the candidate, through such vertices only, and refuses below
//     c+1; a survivor then faces a window certificate, the greatest
//     self-supporting group of such vertices around it. Both read only
//     the graph and the old indices. A candidate provably cannot fall
//     while ≥ c untainted supporters (old index ≥ c, not fall
//     candidates) remain reachable within distance h through such
//     vertices. The probes run masked to balls around the candidate, so
//     their cost — like the closure's — grows with the region, not the
//     graph;
//   - invalidation: across a whole batch, a vertex whose radius-h ball
//     differs between the graph before and the graph after is a seed —
//     within distance h−1 of a deleted endpoint in the graph before, or
//     of an inserted endpoint in the graph after. A ≤h path that exists
//     on one side only uses an edited edge, and its start lies within
//     h−1 of that edge's nearer endpoint on that side. So a cache of raw
//     h-degrees stays exact across the batch once the seeds are marked
//     unknown, and a localized update recounts only seeds: every seed
//     is in the region, and the repair counts every region vertex the
//     cache lacks.
//
// The closure is conservative: it may include vertices whose index ends
// up unchanged, but it never excludes a changing one, which is what the
// repair's exactness argument needs.
package incr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/hbfs"
	"repro/internal/vset"
)

// Op is the kind of one edge edit.
type Op uint8

const (
	// Insert adds an undirected edge (growing the vertex set if an
	// endpoint is new).
	Insert Op = iota
	// Delete removes an undirected edge (vertices are never removed).
	Delete
)

// String names the op as it appears on the wire (khserve POST /mutate).
func (o Op) String() string {
	switch o {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Edit is one undirected edge edit. Endpoint order is irrelevant.
type Edit struct {
	U, V int
	Op   Op
}

// Stats describes one incremental update, threaded through the engine's
// stats plumbing (core.Stats.Incr).
type Stats struct {
	// Localized reports whether the update ran as a localized region
	// repair. False means it fell back to a full re-decomposition —
	// because the dirty region grew past the fallback threshold, or the
	// maintainer was created with (or switched to) repair disabled.
	Localized bool
	// Edits is the number of edge edits coalesced into this update.
	Edits int
	// Regions is the number of connected dirty regions the batch's edits
	// coalesced into: edits with overlapping seed balls share one region,
	// and the repair peels all regions in a single pass. An edit that
	// bridges two previously disjoint regions merges them without being
	// counted as a merge, so this is an upper bound on the connected
	// count.
	Regions int
	// RegionSize is the number of vertices re-peeled (|R|).
	RegionSize int
	// BoundarySize is the number of pinned carrier vertices (|B|): within
	// distance h of the region, their old core indices insulate it.
	BoundarySize int
	// RepairedVertices is the number of region vertices whose core index
	// actually changed.
	RepairedVertices int
	// PhaseSeed, PhaseClosure and PhasePeel are the wall-times of the
	// update's three phases: seeding the balls around the edited
	// endpoints, closing them into the dirty region, and the localized
	// re-peel (including its exact h-degree seeding). For a full-run
	// fallback PhasePeel holds the whole decomposition.
	PhaseSeed    time.Duration
	PhaseClosure time.Duration
	PhasePeel    time.Duration
}

// Finder computes dirty regions. It owns reusable scratch (vertex sets,
// worklists, two h-BFS traversals) so a long-lived Maintainer allocates
// nothing per update in the steady state. A Finder is not safe for
// concurrent use.
type Finder struct {
	n int
	// r marks region members; rlist is the worklist/membership in
	// discovery order (a vertex re-enters the list when it gains a second
	// direction tag, so the closure re-expands it under the new filter).
	r     *vset.Set
	rlist []int32
	// up and down are the direction tags: up-tagged vertices may raise
	// their core index (insert side), down-tagged ones may lower it.
	up   *vset.Set
	down *vset.Set
	// b collects boundary candidates: ball members seen outside the
	// region. A candidate may later join the region; Boundary filters.
	b     *vset.Set
	blist []int32
	// mask is the admission probes' per-candidate alive set.
	mask *vset.Set
	// wseen and wlist are canRaise's window scratch: membership and the
	// potential-riser worklist. wball collects seed balls in SeedEdit.
	wseen   *vset.Set
	wlist   []int32
	wball   []int32
	rcount  int
	aborted bool
	regions int
	// raiseRefused and dropRefused memoize admission-probe refusals.
	// Inside a dense block every region vertex re-offers the same fringe,
	// making this the difference between O(region) and O(region²) probe
	// invocations per closure. A rise refusal depends only on the graph
	// (fixed during a closure) and coreOld, so raiseRefused is a set. A
	// drop refusal may also depend on the down-tag set, and can only flip
	// when that set grows: dropRefused keys it by the set's size at
	// refusal time (downAdds), so a re-offer against an unchanged set
	// skips the probe, and a refusal that did not consult the set at all
	// (epoch permanentRefusal) is never re-probed.
	raiseRefused *vset.Set
	dropRefused  map[int32]int
	downAdds     int
	// hdeg is the caller's raw h-degree cache, lent for one update by
	// Reset: hdeg[v] is v's h-degree in the whole current graph, or < 0
	// when unknown. SeedEdit marks every seed unknown (the invalidation
	// fact in the package comment), so the entries it leaves hold across
	// the edit, and rawHDeg counts and stores the misses in the post-edit
	// graph. canRaise's pre-filter, one-shot test and window floods thus
	// pay at most one exact h-BFS per vertex, and none for a vertex the
	// edit cannot reach.
	hdeg []int32
	// ballOff / ballArena cache unmasked radius-h balls for the bound
	// graph: the closure's expansions and the probes' window floods
	// revisit the same dense neighborhoods over and over, and a ball
	// without an alive mask cannot change under them. Cached slices are
	// arena-backed and immutable, so — unlike a traversal's scratch ball —
	// they survive nested searches, which is what lets the expansion loop,
	// the window flood and the probes all share one traversal. The arena
	// is capped (ballArenaBudget); past it balls are returned as one-shot
	// copies so a pathological non-local update degrades to uncached
	// probes instead of O(n·ball) memory.
	ballOff   map[int32][2]int
	ballArena []int32
	// tx runs the seeds' radius-(h−1) balls, tp everything radius-h: the
	// closure and the probes read radius-h balls through the arena-backed
	// cache, whose slices survive nested searches, so they can share tp.
	// tg tracks the graph the traversals are bound to; they rebind lazily
	// when the maintainer swaps graphs.
	tx, tp *hbfs.Traversal
	tg     *graph.Graph
}

// NewFinder returns an empty Finder; Reset sizes it per update.
func NewFinder() *Finder {
	return &Finder{
		r:            vset.New(0),
		up:           vset.New(0),
		down:         vset.New(0),
		b:            vset.New(0),
		mask:         vset.New(0),
		wseen:        vset.New(0),
		raiseRefused: vset.New(0),
		dropRefused:  make(map[int32]int),
		ballOff:      make(map[int32][2]int),
	}
}

// Reset clears the finder for an update over a graph of n vertices and
// lends it hdeg (length n), the caller's raw h-degree cache: every entry
// ≥ 0 must equal the vertex's h-degree in the graph the first SeedEdit
// runs on. The finder keeps the cache exact across the update (see the
// hdeg field) and leaves every seed it did not count unknown.
func (f *Finder) Reset(n int, hdeg []int32) {
	f.n = n
	f.r.Resize(n)
	f.up.Resize(n)
	f.down.Resize(n)
	f.b.Resize(n)
	f.mask.Resize(n)
	f.wseen.Resize(n)
	f.rlist = f.rlist[:0]
	f.blist = f.blist[:0]
	f.rcount = 0
	f.aborted = false
	f.regions = 0
	f.raiseRefused.Resize(n)
	clear(f.dropRefused)
	f.downAdds = 0
	f.hdeg = hdeg
	clear(f.ballOff)
	f.ballArena = f.ballArena[:0]
}

// ballArenaBudget caps the ball cache at 8 MiB of vertex ids; see the
// ballArena field comment.
const ballArenaBudget = 1 << 21

// cachedBall returns v's unmasked radius-h ball (excluding v) in the
// bound graph, computing it at most once per update. The returned slice
// is immutable and stays valid across later searches and cache inserts:
// the arena only ever appends, and an over-budget or superseded backing
// array is kept alive by the slices that alias it.
func (f *Finder) cachedBall(v, h int) []int32 {
	if o, ok := f.ballOff[int32(v)]; ok {
		return f.ballArena[o[0]:o[1]]
	}
	ball, _ := f.tp.Ball(v, h, nil)
	if len(f.ballArena)+len(ball) <= ballArenaBudget {
		start := len(f.ballArena)
		f.ballArena = append(f.ballArena, ball...)
		f.ballOff[int32(v)] = [2]int{start, len(f.ballArena)}
		return f.ballArena[start:len(f.ballArena):len(f.ballArena)]
	}
	return append([]int32(nil), ball...)
}

// rawHDeg returns v's h-degree in the (post-edit) graph from the lent
// cache, counting and storing it on a miss: the graph is fixed for the
// whole closure, so unlike the masked probe degrees this value cannot
// change under it. A miss only counts; it builds no ball into the arena.
func (f *Finder) rawHDeg(v, h int) int32 {
	if d := f.hdeg[v]; d >= 0 {
		return d
	}
	d := int32(f.tp.HDegree(v, h, nil))
	f.hdeg[v] = d
	return d
}

// bind points the finder's traversals at g, reusing their scratch when
// the graph is unchanged since the last call.
func (f *Finder) bind(g *graph.Graph) {
	if f.tx == nil {
		f.tx = hbfs.NewTraversal(g)
		f.tp = hbfs.NewTraversal(g)
		f.tg = g
		return
	}
	if f.tg != g {
		f.tx.Reset(g)
		f.tp.Reset(g)
		f.tg = g
		// Cached balls describe the previous graph (a delete's seeding runs
		// on the pre-edit graph, the closure on the post-edit one).
		clear(f.ballOff)
		f.ballArena = f.ballArena[:0]
	}
}

// addSeed tags v into the region with the given directions, appending it
// to the closure worklist (again, if it is a member gaining a new tag).
// Reports whether the call grew the region — the signal SeedEdit uses to
// count connected regions.
//
//khcore:vset-caller-epoch r up down
func (f *Finder) addSeed(v int, up, down bool) bool {
	fresh := !f.r.Contains(v)
	if fresh {
		f.r.Add(v)
		f.rlist = append(f.rlist, int32(v))
		f.rcount++
	}
	appended := fresh
	if up && !f.up.Contains(v) {
		f.up.Add(v)
		if !appended {
			f.rlist = append(f.rlist, int32(v))
			appended = true
		}
	}
	if down && !f.down.Contains(v) {
		f.down.Add(v)
		f.downAdds++
		if !appended {
			f.rlist = append(f.rlist, int32(v))
		}
	}
	return fresh
}

// SeedEdit seeds the dirty region with every vertex whose radius-h ball
// the edit {U,V} can change: the vertices within distance h−1 of either
// endpoint in g, plus the endpoints themselves. For a Delete the caller
// must pass the graph still *containing* the edge (paths through the
// deleted edge reach exactly the vertices whose balls shrink); for an
// Insert, the graph already containing it. up/down select the direction
// tags (an insert seeds up, a delete seeds down; pending recovery seeds
// both). Seeds are admitted unconditionally — their support genuinely
// changed — and their entries in the lent h-degree cache are marked
// unknown: no other vertex's ball can change with the edit.
func (f *Finder) SeedEdit(g *graph.Graph, h int, e Edit, up, down bool) {
	f.bind(g)
	f.wball = f.wball[:0]
	for _, src := range [2]int{e.U, e.V} {
		if src < 0 || src >= g.NumVertices() {
			continue
		}
		f.wball = append(f.wball, int32(src))
		if h >= 2 {
			ball, _ := f.tx.Ball(src, h-1, nil)
			f.wball = append(f.wball, ball...)
		}
	}
	// An edit whose seed ball touches the region claimed so far coalesces
	// into that region; a fully fresh seed ball opens a new one. (An edit
	// bridging two so-far-disjoint regions merges them but is not counted
	// as a merge, so Regions is an upper bound on the connected count.)
	overlap, grew := false, false
	for _, v := range f.wball {
		if f.r.Contains(int(v)) {
			overlap = true
			break
		}
	}
	for _, v := range f.wball {
		f.hdeg[v] = -1
		if f.addSeed(int(v), up, down) {
			grew = true
		}
	}
	if grew && !overlap {
		f.regions++
	}
}

// SeedVertex tags a single vertex into the region directly — the pending
// recovery path, replaying the membership of a canceled repair's region.
func (f *Finder) SeedVertex(v int, up, down bool) {
	if v < 0 || v >= f.n {
		return
	}
	f.addSeed(v, up, down)
}

// raiseBudget caps canRaise's window of potential co-risers. Past it the
// probe gives up on certifying locally and over-approximates (recruit),
// which is always sound — region overshoot costs performance, never
// correctness — and is bounded in turn by the closure's non-local abort.
const raiseBudget = 64

// permanentRefusal marks a memoized drop refusal that consulted only the
// graph, never the down-tag set — growth of the set cannot flip it, so it
// is never re-probed during the update.
const permanentRefusal = -1

// canRaise is the up-admission probe: can w's core index rise past its
// old value, to k = coreOld[w]+1? Its refusals rest on two facts: a
// vertex's core index never exceeds its h-degree, and a vertex whose
// index rises to k lies in the new graph's (k,h)-core C_k. Every member
// of C_k has a new index ≥ k, so its old index is ≥ k or its raw h-degree
// in the new graph is ≥ k; call such vertices *potential supporters*. A
// single masked degree test cannot always answer — vertices can rise only
// *together* (each supplying the others' support), and for h ≥ 2 the
// degree-locality theorem that makes one-shot tests tight for classic
// cores fails, which is the source paper's own starting point — so the
// probe runs three tests, cheapest first:
//
//  1. Pre-filter: w's own raw h-degree must clear k.
//  2. One-shot ball test: w must have ≥ k potential supporters within
//     distance h, counted over paths through potential supporters only.
//     If w rises to k, at least k members of C_k reach it by paths of
//     length ≤ h inside C_k; such paths stay in w's ball, and every
//     vertex on them is a potential supporter. So a failed count proves
//     w cannot rise.
//  3. Window certificate. Window flood: collect the potential co-risers
//     reachable from w — potential supporters of old index < k —
//     expanding ball-by-ball through them, and noting as *definite*
//     every ball member with old index ≥ k. Every ≤h path from a window
//     vertex stays inside its ball, so the window plus its definite
//     fringe contains every member of C_k around w. Eviction fixpoint:
//     optimistically assume all window risers rise, then repeatedly evict
//     any riser whose masked h-degree over definite ∪ surviving risers
//     cannot reach k. The surviving set is the greatest fixpoint. No
//     member of C_k is ever evicted (its first casualty would still have
//     had full support — contradiction), so if w is evicted, w provably
//     cannot rise. If the flood exceeds raiseBudget the certificate is
//     abandoned and the probe returns true (recruit): truncated eviction
//     would under-count support and could evict a true riser, which is
//     the one unsound direction.
//
// Each test reads only the graph and coreOld, never the direction tags,
// so each refusal is final for the update and recorded in raiseRefused.
//
// A successful certificate is shared: every surviving window riser y has
// masked h-degree ≥ k ≥ coreOld[y]+1 over the surviving set, and the
// set's definite supporters (old index ≥ k) are a fortiori definite for
// y's lower threshold — so the same fixpoint witnesses that y, too, can
// rise, and the probe up-tags all survivors at once. Admitting beyond
// the probed vertex is always sound (the region is an over-approximation
// the repair re-peels exactly); what it buys is one probe per rising
// group instead of one per member.
//
//khcore:vset-caller-epoch mask wseen raiseRefused
func (f *Finder) canRaise(h, w int, coreOld []int32) bool {
	if f.raiseRefused.Contains(w) {
		return false
	}
	k := int(coreOld[w]) + 1
	if f.rawHDeg(w, h) < int32(k) {
		f.raiseRefused.Add(w)
		return false
	}
	m := f.mask // alive mask: definite supporters ∪ unevicted risers
	m.Clear()
	m.Add(w)
	for _, z := range f.cachedBall(w, h) {
		if int(coreOld[z]) >= k || f.rawHDeg(int(z), h) >= int32(k) {
			m.Add(int(z))
		}
	}
	if !f.tp.HDegreeAtLeast(w, h, m, k) {
		f.raiseRefused.Add(w)
		return false
	}
	m.Clear()
	f.wseen.Clear()
	f.wlist = append(f.wlist[:0], int32(w))
	f.wseen.Add(w)
	m.Add(w)
	for head := 0; head < len(f.wlist); head++ {
		// Cached balls are arena-backed, so the nested cache fills and
		// support tests below cannot invalidate the slice being scanned.
		ball := f.cachedBall(int(f.wlist[head]), h)
		for _, zz := range ball {
			z := int(zz)
			if f.wseen.Contains(z) {
				continue
			}
			f.wseen.Add(z)
			if int(coreOld[z]) >= k {
				m.Add(z) // definite: supports everyone, never evicted
				continue
			}
			if f.rawHDeg(z, h) < int32(k) {
				continue // cannot reach k even in the full new graph
			}
			if len(f.wlist) >= raiseBudget {
				return true // window truncated: cannot certify, recruit
			}
			m.Add(z)
			f.wlist = append(f.wlist, int32(z))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, yy := range f.wlist {
			y := int(yy)
			if !m.Contains(y) {
				continue
			}
			if !f.tp.HDegreeAtLeast(y, h, m, k) {
				if y == w {
					// Eviction only shrinks: the verdict is final.
					f.raiseRefused.Add(w)
					return false
				}
				m.Remove(y)
				changed = true
			}
		}
	}
	// Shared certificate: the surviving fixpoint witnesses every surviving
	// riser at once (see the doc comment), so admit them all here rather
	// than paying one full window fixpoint per member.
	for _, yy := range f.wlist {
		y := int(yy)
		if m.Contains(y) && !f.up.Contains(y) {
			f.addSeed(y, true, false)
		}
	}
	return true
}

// canDrop is the down-admission probe: can w's core index fall below its
// old value c? It provably cannot while w retains c untainted supporters
// — old index ≥ c and not themselves fall candidates (at the fixpoint,
// untainted vertices keep their index, so they and the untainted path
// vertices between them stay in the (c,h)-core with w). The probe masks
// w's ball to the untainted supporters and certifies safety on a masked
// h-degree of ≥ c; unlike canRaise the mask here *under*-counts (it
// drops every tainted vertex, changed or not), which again errs
// conservative: certificate fails ⇒ w stays a candidate.
//
// canDrop owns its refusal memo (dropRefused): an index-0 refusal never
// consults the down-tag set and is permanent; a sufficient-support
// refusal counted untainted (un-down-tagged) supporters and expires when
// the set grows.
//
//khcore:vset-caller-epoch mask
func (f *Finder) canDrop(h, w int, coreOld []int32) bool {
	if e, ok := f.dropRefused[int32(w)]; ok && (e == permanentRefusal || e == f.downAdds) {
		return false
	}
	c := int(coreOld[w])
	if c == 0 {
		f.dropRefused[int32(w)] = permanentRefusal
		return false // index 0 cannot fall
	}
	ball := f.cachedBall(w, h)
	f.mask.Clear()
	cnt := 0
	for _, y := range ball {
		if int(coreOld[y]) >= c && !f.down.Contains(int(y)) {
			f.mask.Add(int(y))
			cnt++
		}
	}
	if cnt < c {
		return true
	}
	f.mask.Add(w)
	if f.tp.HDegreeAtLeast(w, h, f.mask, c) {
		f.dropRefused[int32(w)] = f.downAdds
		return false
	}
	return true
}

// CloseRegionCtx grows the seeds to the full dirty region by fixpoint.
// An up-tagged vertex x offers an up candidacy to every vertex w within
// distance h (in g) with coreOld[w] ≥ coreOld[x] — a rise at x can only
// lift vertices at or above x's old level — and symmetrically a
// down-tagged x offers a down candidacy to w with coreOld[w] ≤
// coreOld[x]. An offer admits only if the direction's support probe says
// w's index can actually move; admitted vertices inherit the tag and
// re-expand. A rise probe reads only the graph and coreOld, so its
// refusal is final. A drop probe also reads the down-tag set, and
// because a vertex re-enters the worklist whenever its tag set grows,
// every earlier-refused neighbor is re-offered whenever new candidates
// appear in its ball — the fixpoint retest that makes drop refusal sound.
// (Re-offers while the down-tag set is unchanged since the last refusal
// skip the probe via the refusal memo: re-running it could not flip the
// answer.) Every ball member, admitted or not, is recorded as a boundary
// candidate, which makes the final boundary exactly the distance-≤h
// insulation the repair peel pins.
//
// Balls run on the post-edit graph with no alive mask: causes that acted
// through deleted edges are covered by the delete seeds (any old path
// through a deleted edge puts its radius-(h−1) neighborhood in the seed
// set).
//
// The closure polls ctx between expansions and between admission probes
// (a probe's window fixpoint is itself ball-heavy); a canceled closure
// returns ctx's error and the finder's partial region, which the
// maintainer records as pending so a later update can finish the repair.
//
//khcore:vset-caller-epoch r b up down
func (f *Finder) CloseRegionCtx(ctx context.Context, g *graph.Graph, h int, coreOld []int32) error {
	f.bind(g)
	poll := ctx != nil && ctx.Done() != nil
	ops := 0
	for i := 0; i < len(f.rlist); i++ {
		if poll && i&15 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if 2*f.rcount >= f.n {
			// The region stopped being local: more than half the graph is
			// dirty, so a full warm run beats finishing the closure. The
			// partial region stays valid for pending bookkeeping.
			f.aborted = true
			return nil
		}
		faultinject.Here(faultinject.IncrRegion)
		x := int(f.rlist[i])
		xup, xdown := f.up.Contains(x), f.down.Contains(x)
		cx := coreOld[x]
		ball := f.cachedBall(x, h)
		for _, w := range ball {
			if ops++; poll && ops&63 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			wi := int(w)
			if !f.r.Contains(wi) && !f.b.Contains(wi) {
				f.b.Add(wi)
				f.blist = append(f.blist, w)
			}
			cw := coreOld[wi]
			if xup && cw >= cx && !f.up.Contains(wi) {
				if f.canRaise(h, wi, coreOld) {
					f.addSeed(wi, true, false)
				}
			}
			if xdown && cw <= cx && !f.down.Contains(wi) {
				if f.canDrop(h, wi, coreOld) {
					f.addSeed(wi, false, true)
				}
			}
		}
	}
	return nil
}

// Region returns the dirty region in discovery order, deduplicated (a
// vertex that re-entered the worklist for a second tag appears once).
// The slice aliases finder scratch and is valid until the next Reset.
func (f *Finder) Region() []int32 {
	// Compact re-expansion duplicates out in place (stable, first
	// occurrence kept), borrowing the mask set as the dedup filter.
	f.mask.Clear()
	out := f.rlist[:0]
	for _, v := range f.rlist {
		if f.mask.Contains(int(v)) {
			continue
		}
		f.mask.Add(int(v))
		out = append(out, v)
	}
	f.rlist = out
	return f.rlist
}

// Boundary returns the boundary — every vertex within distance h of the
// region that is not itself in it — in discovery order. The slice
// aliases finder scratch, valid until the next Reset.
func (f *Finder) Boundary() []int32 {
	out := f.blist[:0]
	for _, v := range f.blist {
		if !f.r.Contains(int(v)) {
			out = append(out, v)
		}
	}
	f.blist = out
	return f.blist
}

// NonLocal reports whether the closure aborted because the dirty region
// covered too much of the graph; the region is then incomplete and the
// caller must fall back to a full re-decomposition.
func (f *Finder) NonLocal() bool { return f.aborted }

// Regions returns the number of connected dirty regions the seed balls
// coalesced into (see Stats.Regions).
func (f *Finder) Regions() int { return f.regions }
