package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incr"
)

// The edit section's graph and stream. The caveman graph (dense disjoint
// blocks on a ring of bridges, as in the repository's incremental
// benchmarks) keeps every edit's dirty region inside one block at h = 2,
// so the localized repair path does the work.
const (
	editH          = 2
	cavemanBlocks  = 80
	cavemanMinSize = 40
	cavemanMaxSize = 60
	cavemanDrop    = 0.3
	scriptDeletes  = 10 // single-edge deletes in S
	scriptInserts  = 10 // single-edge intra-block inserts in S
	scriptBatches  = 40 // mixed batches in S
	// Batches are most of S on purpose. S and its inverse always hold as
	// many single deletes (~2 ms) as single inserts (~5 ms), so with
	// singles in the majority the median position sits on the step
	// between the two and mutate_p50 jumps with the seed.
	scriptBatchSize = 4
)

// caveman builds nBlocks disjoint dense blocks (cliques with a drop
// fraction of their edges removed) joined into one component by a ring of
// single bridge edges. It returns the graph and each vertex's block.
func caveman(seed uint64) (*graph.Graph, []int32) {
	r := gen.NewRNG(seed)
	b := graph.NewBuilder(0)
	starts := make([]int, 0, cavemanBlocks+1)
	var block []int32
	v := 0
	for i := 0; i < cavemanBlocks; i++ {
		starts = append(starts, v)
		size := cavemanMinSize + r.Intn(cavemanMaxSize-cavemanMinSize+1)
		for x := v; x < v+size; x++ {
			block = append(block, int32(i))
			for y := x + 1; y < v+size; y++ {
				if r.Float64() >= cavemanDrop {
					b.AddEdge(x, y)
				}
			}
		}
		v += size
	}
	starts = append(starts, v)
	for i := 0; i < cavemanBlocks; i++ {
		u := starts[i] + r.Intn(starts[i+1]-starts[i])
		j := (i + 1) % cavemanBlocks
		w := starts[j] + r.Intn(starts[j+1]-starts[j])
		b.AddEdge(u, w)
	}
	return b.Build(), block
}

// editScript draws the edit sequence S over g and returns S followed by
// its inverse (reversed, each op flipped), so replaying the script returns
// the graph to g. Every pair is edited at most once in S, deletes remove
// intra-block edges and inserts add intra-block non-edges, so every edit
// is valid in every round.
func editScript(g *graph.Graph, block []int32, seed uint64) [][]incr.Edit {
	r := gen.NewRNG(seed ^ 0x5eed5eed)
	n := g.NumVertices()
	used := map[[2]int]bool{}
	pick := func(op incr.Op) incr.Edit {
		for {
			u := r.Intn(n)
			var v int
			if op == incr.Delete {
				adj := g.Neighbors(u)
				if len(adj) == 0 {
					continue
				}
				v = int(adj[r.Intn(len(adj))])
			} else {
				v = r.Intn(n)
				if v == u || g.HasEdge(u, v) {
					continue
				}
			}
			if block[u] != block[v] {
				continue
			}
			k := [2]int{min(u, v), max(u, v)}
			if used[k] {
				continue
			}
			used[k] = true
			return incr.Edit{U: k[0], V: k[1], Op: op}
		}
	}
	var s [][]incr.Edit
	for i := 0; i < scriptDeletes; i++ {
		s = append(s, []incr.Edit{pick(incr.Delete)})
	}
	for i := 0; i < scriptInserts; i++ {
		s = append(s, []incr.Edit{pick(incr.Insert)})
	}
	for i := 0; i < scriptBatches; i++ {
		b := make([]incr.Edit, scriptBatchSize)
		for k := range b {
			op := incr.Delete
			if k%2 == 1 {
				op = incr.Insert
			}
			b[k] = pick(op)
		}
		s = append(s, b)
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	script := append([][]incr.Edit(nil), s...)
	for i := len(s) - 1; i >= 0; i-- {
		inv := make([]incr.Edit, len(s[i]))
		for k, e := range s[i] {
			inv[k] = e
			if e.Op == incr.Delete {
				inv[k].Op = incr.Insert
			} else {
				inv[k].Op = incr.Delete
			}
		}
		script = append(script, inv)
	}
	return script
}

// roundStats aggregates one traced edit round.
type roundStats struct {
	roundMs, applyMs, spliceMs            float64
	seedMs, closureMs, peelMs, otherMs    float64
	localized, region, boundary, repaired float64
	visits, bytes                         float64
	edits                                 int
}

// editBench runs the edit section: one Maintainer replaying the script.
type editBench struct {
	cfg    config
	ck     *checker
	tr     *tracer
	graph0 *graph.Graph
	script [][]incr.Edit
	m      *core.Maintainer

	core0      []int  // cores of graph0, the state every round returns to
	digestS    string // cores of a fresh decomposition of the graph after S
	best       []time.Duration
	samples    [][]float64 // per position, every untraced time per edit (ms)
	bestTr     []time.Duration
	rounds     int
	roundVisit int64 // visits of round 0, repeated exactly at 1 worker
	traced     []roundStats
	setupBest  time.Duration
}

func newEditBench(cfg config, ck *checker, tr *tracer) (*editBench, error) {
	e := &editBench{cfg: cfg, ck: ck, tr: tr}
	for try := 0; try < setupTries; try++ {
		e.close()
		e.graph0 = nil // so two caveman graphs are never live at once
		runtime.GC()
		sp := tr.begin(true, "setup.edit", -1, try)
		start := time.Now()
		g, block := caveman(cfg.seed)
		m, err := core.NewMaintainer(g, editH, core.Options{Workers: cfg.workers})
		if err != nil {
			return nil, fmt.Errorf("edit cold start: %w", err)
		}
		d := time.Since(start)
		tr.end(sp)
		e.graph0, e.m = g, m
		if try == 0 || d < e.setupBest {
			e.setupBest = d
		}
		if try == setupTries-1 {
			e.script = editScript(g, block, cfg.seed)
		}
	}
	e.best = make([]time.Duration, len(e.script))
	e.samples = make([][]float64, len(e.script))
	e.bestTr = make([]time.Duration, len(e.script))
	return e, nil
}

func (e *editBench) close() {
	if e.m != nil {
		e.m.Close()
		e.m = nil
	}
}

// references checks the maintainer's starting cores against a fresh
// decomposition and keeps them as the state every round must return to.
func (e *editBench) references() error {
	e.core0 = e.m.Core()
	want, err := scratchCores(e.graph0)
	if err != nil {
		return err
	}
	e.ck.ok(digest(e.core0) == digest(want), "edit: starting cores differ from a fresh decomposition")
	g := e.graph0
	for _, batch := range e.script[:len(e.script)/2] {
		ins, del := spliceLists(batch)
		g = g.Splice(g.NumVertices(), ins, del)
	}
	afterS, err := scratchCores(g)
	if err != nil {
		return err
	}
	e.digestS = digest(afterS)
	return nil
}

// scratchCores decomposes g from scratch on a fresh 1-worker engine.
func scratchCores(g *graph.Graph) ([]int, error) {
	eng := core.NewEngine(g, 1)
	defer eng.Close()
	var r core.Result
	if err := eng.DecomposeInto(&r, core.Options{H: editH}); err != nil {
		return nil, fmt.Errorf("fresh decomposition: %w", err)
	}
	return r.Core, nil
}

// round replays S and its inverse once.
func (e *editBench) round(traced bool) error {
	traced = traced && e.tr.on
	ctx := context.Background()
	rs := e.tr.begin(traced, "edit.round", -1, e.rounds)
	var st roundStats
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	roundStart := time.Now()
	var visits int64
	half := len(e.script) / 2
	for p, batch := range e.script {
		if traced {
			g := e.m.Graph()
			ins, del := spliceLists(batch)
			sp := e.tr.begin(true, "graph.Splice", rs, e.rounds)
			t := time.Now()
			g.Splice(g.NumVertices(), ins, del)
			st.spliceMs += ms(time.Since(t))
			e.tr.end(sp)
		}
		sp := e.tr.begin(traced, "core.ApplyBatch", rs, e.rounds)
		start := time.Now()
		err := e.m.ApplyBatch(ctx, batch)
		d := time.Since(start)
		e.tr.end(sp)
		e.ck.ok(err == nil, "edit round %d position %d: %v", e.rounds, p, err)
		if err != nil {
			continue
		}
		bestOf := e.best
		if traced {
			bestOf = e.bestTr
		}
		if bestOf[p] == 0 || d < bestOf[p] {
			bestOf[p] = d
		}
		if !traced {
			e.samples[p] = append(e.samples[p], ms(d)/float64(len(batch)))
		}
		ls := e.m.LastStats()
		visits += ls.Visits
		if traced {
			in := ls.Incr
			st.applyMs += ms(d)
			st.seedMs += ms(in.PhaseSeed)
			st.closureMs += ms(in.PhaseClosure)
			st.peelMs += ms(in.PhasePeel)
			st.edits += len(batch)
			if in.Localized {
				st.localized++
			}
			st.region += float64(in.RegionSize)
			st.boundary += float64(in.BoundarySize)
			st.repaired += float64(in.RepairedVertices)
		}
		if p == half-1 {
			e.ck.ok(digest(e.m.Core()) == e.digestS, "edit round %d: cores after S differ from a fresh decomposition", e.rounds)
		}
	}
	if traced {
		runtime.ReadMemStats(&m1)
		st.roundMs = ms(time.Since(roundStart))
		st.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
		st.visits = float64(visits)
		st.otherMs = st.applyMs - st.seedMs - st.closureMs - st.peelMs
		e.traced = append(e.traced, st)
	}
	e.tr.end(rs)
	e.ck.ok(digest(e.m.Core()) == digest(e.core0), "edit round %d: cores after S and its inverse differ from the start", e.rounds)
	e.ck.ok(e.m.Graph().NumEdges() == e.graph0.NumEdges(), "edit round %d: %d edges after S and its inverse, want %d",
		e.rounds, e.m.Graph().NumEdges(), e.graph0.NumEdges())
	if e.rounds == 0 {
		e.roundVisit = visits
	} else if e.cfg.workers == 1 {
		e.ck.ok(visits == e.roundVisit, "edit round %d: 1-worker visits %d, round 0 had %d", e.rounds, visits, e.roundVisit)
	}
	e.rounds++
	return nil
}

// spliceLists converts a batch to graph.Splice's insert and delete lists.
func spliceLists(batch []incr.Edit) (ins, del [][2]int32) {
	for _, e := range batch {
		k := [2]int32{int32(min(e.U, e.V)), int32(max(e.U, e.V))}
		if e.Op == incr.Insert {
			ins = append(ins, k)
		} else {
			del = append(del, k)
		}
	}
	return ins, del
}

// meanPerEdit is the mean over script positions of the best ApplyBatch
// time, per edit applied: the edit_ms metric.
func meanPerEdit(best []time.Duration, script [][]incr.Edit) float64 {
	var sum float64
	for p, b := range script {
		sum += ms(best[p]) / float64(len(b))
	}
	return sum / float64(len(script))
}

func (e *editBench) diagnostics() map[string]float64 {
	d := map[string]float64{
		"edit_rounds":       float64(e.rounds),
		"edit_positions":    float64(len(e.script)),
		"edit_round_visits": float64(e.roundVisit),
	}
	for _, xs := range e.samples {
		d["edit_p25_ms"] += quantile(xs, 0.25) / float64(len(e.samples))
		d["edit_median_ms"] += median(xs) / float64(len(e.samples))
	}
	return d
}
