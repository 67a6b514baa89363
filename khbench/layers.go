package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hbfs"
)

// layerProbes holds the traced run's direct measurements of single
// layers, made after the cycles on the same graphs.
type layerProbes struct {
	hdegNsPerVisit, ballNsPerVisit, sampledNsPerExpansion float64
	dispatchUs                                            float64
	acquireIdleUs, acquireHeldUs                          float64
}

// layerReps is how often each layer probe repeats; the probes report the
// best repetition (kernels) or the median (round trips).
const layerReps = 3

// probeLayers times the h-BFS kernels on every exact job's graph, the
// pool's one-vertex round trip, and EnginePool checkout.
func probeLayers(cfg config, st *staticBench, ed *editBench, tr *tracer) (layerProbes, error) {
	var probes layerProbes
	var hdegNs, ballNs, sampledNs, hdegVisits, ballVisits, expansions float64
	for i, j := range staticJobs {
		if j.approx {
			continue
		}
		g := st.graphs[j.graph]
		pool := hbfs.NewPool(g, cfg.workers)
		verts := make([]int32, g.NumVertices())
		for v := range verts {
			verts[v] = int32(v)
		}
		out := make([]int32, g.NumVertices())
		budget := core.SampleBudgetFor(approxEpsilon, core.DefaultApproxConfidence)
		bestH, bestB, bestS := time.Duration(0), time.Duration(0), time.Duration(0)
		var vH, vB, eS int64
		for r := 0; r < layerReps; r++ {
			pool.ResetVisits()
			sp := tr.begin(true, "hbfs.HDegreesAll", -1, i)
			t := time.Now()
			pool.HDegreesAll(j.h, nil)
			d := time.Since(t)
			tr.end(sp)
			vH = pool.Visits()
			if r == 0 || d < bestH {
				bestH = d
			}
			pool.ResetVisits()
			sp = tr.begin(true, "hbfs.Balls", -1, i)
			t = time.Now()
			pool.Balls(verts, j.h, nil, func(int, int32, []int32, int) {})
			d = time.Since(t)
			tr.end(sp)
			vB = pool.Visits()
			if r == 0 || d < bestB {
				bestB = d
			}
			pool.ResetVisits()
			sp = tr.begin(true, "hbfs.HDegreesSampled", -1, i)
			t = time.Now()
			pool.HDegreesSampled(verts, j.h, nil, budget, approxSeed, out)
			d = time.Since(t)
			tr.end(sp)
			eS = pool.Expansions()
			if r == 0 || d < bestS {
				bestS = d
			}
		}
		pool.Close()
		hdegNs += float64(bestH.Nanoseconds())
		ballNs += float64(bestB.Nanoseconds())
		sampledNs += float64(bestS.Nanoseconds())
		hdegVisits += float64(vH)
		ballVisits += float64(vB)
		expansions += float64(eS)
	}
	probes.hdegNsPerVisit = hdegNs / max(hdegVisits, 1)
	probes.ballNsPerVisit = ballNs / max(ballVisits, 1)
	probes.sampledNsPerExpansion = sampledNs / max(expansions, 1)

	// One-vertex round trip: worker 0 computes one h-degree, every other
	// worker is woken and returns.
	g := st.graphs["jazz"]
	pool := hbfs.NewPool(g, cfg.workers)
	rt := make([]float64, 0, 1000)
	for r := 0; r < 1000; r++ {
		t := time.Now()
		pool.Run(func(w int, tv *hbfs.Traversal) {
			if w == 0 {
				tv.HDegree(0, 2, nil)
			}
		})
		rt = append(rt, float64(time.Since(t).Nanoseconds())/1e3)
	}
	pool.Close()
	probes.dispatchUs = median(rt)

	ep, err := core.NewEnginePool(ed.graph0, serveEngines, cfg.workers)
	if err != nil {
		return probes, fmt.Errorf("engine pool probe: %w", err)
	}
	defer ep.Close()
	ctx := context.Background()
	acquire := func() (float64, error) {
		xs := make([]float64, 0, 1000)
		for r := 0; r < 1000; r++ {
			t := time.Now()
			e, err := ep.Acquire(ctx)
			if err != nil {
				return 0, err
			}
			ep.Release(e)
			xs = append(xs, float64(time.Since(t).Nanoseconds())/1e3)
		}
		return median(xs), nil
	}
	sp := tr.begin(true, "enginepool.Acquire", -1, 0)
	probes.acquireIdleUs, err = acquire()
	tr.end(sp)
	if err != nil {
		return probes, err
	}
	held, err := ep.Acquire(ctx)
	if err != nil {
		return probes, err
	}
	sp = tr.begin(true, "enginepool.Acquire", -1, 1)
	probes.acquireHeldUs, err = acquire()
	tr.end(sp)
	ep.Release(held)
	return probes, err
}

// perLayer assembles the traced run's per-layer metrics: medians over the
// traced passes and rounds, the layer probes, and the serving counters.
func perLayer(probes layerProbes, st *staticBench, ed *editBench, sv *serveBench) map[string]metric {
	pm := func(f func(p passStats) float64) float64 {
		xs := make([]float64, len(st.traced))
		for i, p := range st.traced {
			xs[i] = f(p)
		}
		return median(xs)
	}
	rm := func(f func(r roundStats) float64) float64 {
		xs := make([]float64, len(ed.traced))
		for i, r := range ed.traced {
			xs[i] = f(r) / float64(max(r.edits, 1))
		}
		return median(xs)
	}
	positions := float64(len(ed.script))
	m := map[string]metric{
		"hbfs.hdegree_ns_per_visit":     {probes.hdegNsPerVisit, "ns"},
		"hbfs.ball_ns_per_visit":        {probes.ballNsPerVisit, "ns"},
		"hbfs.sampled_ns_per_expansion": {probes.sampledNsPerExpansion, "ns"},
		"hbfs.dispatch_us":              {probes.dispatchUs, "us"},
		"core.visits":                   {pm(func(p passStats) float64 { return p.visits }), "count"},
		"core.hdegree_computations":     {pm(func(p passStats) float64 { return p.hdeg }), "count"},
		"core.decrements":               {pm(func(p passStats) float64 { return p.decrements }), "count"},
		"core.partitions":               {pm(func(p passStats) float64 { return p.partitions }), "count"},
		"core.phase_hdegrees_ms":        {pm(func(p passStats) float64 { return p.phHDeg }), "ms"},
		"core.phase_lower_bounds_ms":    {pm(func(p passStats) float64 { return p.phLB }), "ms"},
		"core.phase_upper_bound_ms":     {pm(func(p passStats) float64 { return p.phUB }), "ms"},
		"core.phase_intervals_ms":       {pm(func(p passStats) float64 { return p.phIntervals }), "ms"},
		"core.phase_other_ms":           {pm(func(p passStats) float64 { return p.phOther }), "ms"},
		"core.call_overhead_ms":         {pm(func(p passStats) float64 { return p.callOverheadMs }), "ms"},
		"core.allocs_per_decompose":     {pm(func(p passStats) float64 { return p.allocsPerDecompose }), "count"},
		"core.bytes_per_decompose":      {pm(func(p passStats) float64 { return p.bytesPerDecompose }), "B"},
		"static.pass_ms":                {pm(func(p passStats) float64 { return p.passMs }), "ms"},
		"static.bench_self_ms":          {pm(func(p passStats) float64 { return p.passMs - p.decomposeMs }), "ms"},
		"approx.samples_drawn":          {pm(func(p passStats) float64 { return p.samples }), "count"},
		"approx.truncated_balls":        {pm(func(p passStats) float64 { return p.truncated }), "count"},
		"approx.error_bound":            {pm(func(p passStats) float64 { return p.errBound }), "count"},
		"approx.phase_estimate_ms":      {pm(func(p passStats) float64 { return p.phEstimate }), "ms"},
		"approx.phase_peel_ms":          {pm(func(p passStats) float64 { return p.phPeel }), "ms"},
		"approx.phase_other_ms":         {pm(func(p passStats) float64 { return p.approxOther }), "ms"},
		"incr.localized_frac":           {median(collect(ed.traced, func(r roundStats) float64 { return r.localized / positions })), "ratio"},
		"incr.region_size":              {median(collect(ed.traced, func(r roundStats) float64 { return r.region / positions })), "count"},
		"incr.boundary_size":            {median(collect(ed.traced, func(r roundStats) float64 { return r.boundary / positions })), "count"},
		"incr.repaired_vertices":        {median(collect(ed.traced, func(r roundStats) float64 { return r.repaired / positions })), "count"},
		"incr.visits_per_edit":          {rm(func(r roundStats) float64 { return r.visits }), "count"},
		"incr.phase_seed_ms":            {rm(func(r roundStats) float64 { return r.seedMs }), "ms"},
		"incr.phase_closure_ms":         {rm(func(r roundStats) float64 { return r.closureMs }), "ms"},
		"incr.phase_peel_ms":            {rm(func(r roundStats) float64 { return r.peelMs }), "ms"},
		"graph.splice_ms":               {rm(func(r roundStats) float64 { return r.spliceMs }), "ms"},
		"incr.other_ms":                 {rm(func(r roundStats) float64 { return r.otherMs }), "ms"},
		"incr.apply_ms":                 {rm(func(r roundStats) float64 { return r.applyMs }), "ms"},
		"incr.bytes_per_edit":           {rm(func(r roundStats) float64 { return r.bytes }), "B"},
		"edit.bench_self_ms":            {rm(func(r roundStats) float64 { return r.roundMs - r.applyMs - r.spliceMs }), "ms"},
		"enginepool.acquire_us":         {probes.acquireIdleUs, "us"},
		"enginepool.acquire_held_us":    {probes.acquireHeldUs, "us"},
		// The serving latencies are reported here, without a bound: on a
		// shared 2-vCPU host they moved two to three times as far as the
		// static timings with every slow phase (see README).
		"read_p50_ms":              {quantile(sv.readBest, 0.50), "ms"},
		"read_p99_ms":              {quantile(sv.readBest, 0.99), "ms"},
		"mutate_p50_ms":            {quantile(sv.writeBest, 0.50), "ms"},
		"mutate_p90_ms":            {quantile(sv.writeBest, 0.90), "ms"},
		"khserve.shed_count":       {float64(sv.shed), "count"},
		"khserve.degraded_count":   {float64(sv.degraded), "count"},
		"khserve.core_p50_ms":      {median(sv.coreLat), "ms"},
		"khserve.approx_p50_ms":    {median(sv.approxLat), "ms"},
		"loadgen.lateness_p99_ms":  {quantile(sv.lateness, 0.99), "ms"},
		"trace.exact_overhead_ms":  {ms(sumBest(st.bestTr, false) - sumBest(st.best, false)), "ms"},
		"trace.approx_overhead_ms": {ms(sumBest(st.bestTr, true) - sumBest(st.best, true)), "ms"},
		"trace.edit_overhead_ms":   {meanPerEdit(ed.bestTr, ed.script) - meanPerEdit(ed.best, ed.script), "ms"},
	}
	return m
}

func collect(rs []roundStats, f func(roundStats) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}
