package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
)

// suspectGraph is one graph of the ImproveLB wave tests; waves lists the
// h values at which its cleaning produces capped dips under suspectOpts.
type suspectGraph struct {
	name  string
	g     *graph.Graph
	waves []int
}

// suspectCorpus is the graph set of the ImproveLB wave tests: four
// generator families plus the jazz dataset. Under suspectOpts the BA and
// ER graphs produce capped dips at both h; the caveman blocks and jazz
// clean without one, covering the wave-free path. The ring is the
// boundary case of the re-verification: a ring lattice (every vertex
// linked to its three nearest neighbours on each side) with a tenth of
// its edges rewired, so h-degrees sit close together and, at h=3, many
// suspects re-count to exactly kmin and belong to the kmin-core. A wave
// that evicted them — a survival test of d > kmin instead of d >= kmin —
// lowers 44 of its 60 cores; no other graph here notices.
func suspectCorpus(t *testing.T) []suspectGraph {
	t.Helper()
	jazz, err := datasets.Load("jazz")
	if err != nil {
		t.Fatal(err)
	}
	return []suspectGraph{
		{"BA", gen.BarabasiAlbert(250, 4, 11), []int{2, 3}},
		{"ER", gen.ErdosRenyi(250, 1250, 12), []int{2, 3}},
		{"caveman", gen.Communities(250, 8, 20, 40, 0.05, 13), nil},
		{"jazz", jazz, nil},
		{"ring", gen.WattsStrogatz(60, 6, 0.1, 126), []int{3}},
	}
}

// suspectEngine and suspectOpts drive ImproveLB's re-verification waves
// hard: the engine's recount headroom is pinned to 1, which truncates
// nearly every partition member's h-degree just above kmax+1, so
// decrements drag many capped entries below kmin, and small fixed
// partitions make many cleaning passes per run.
func suspectEngine(g *graph.Graph, workers int) *Engine {
	e := NewEngine(g, workers)
	e.fixedSlack = 1
	return e
}

func suspectOpts(h int) Options {
	return Options{H: h, PartitionSize: 2}
}

// waveRecounts returns how many suspects ImproveLB re-counted across
// every solver e has run: the sequential solver and the interval
// fan-out's fleet. Called on a fresh engine after one run, it observes
// that run's re-verification waves.
func waveRecounts(e *Engine) int64 {
	var recounts int64
	for _, s := range e.sv {
		recounts += s.recounts
	}
	return recounts
}

// TestImproveLBSuspectWavesExact is the differential property of the
// per-wave re-verification: capped dips are re-counted only when the
// exact-eviction stack runs dry, and the cores must still equal the naive
// oracle, itself checked by Validate, on the serial path (1 worker) and
// on the concurrent one (2 workers, parallel gates forced open).
func TestImproveLBSuspectWavesExact(t *testing.T) {
	forceParallel(t)
	for _, c := range suspectCorpus(t) {
		for _, h := range []int{2, 3} {
			want := NaiveDecompose(c.g, h)
			if err := Validate(c.g, h, want); err != nil {
				t.Fatalf("%s h=%d: oracle: %v", c.name, h, err)
			}
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/h=%d/workers=%d", c.name, h, workers), func(t *testing.T) {
					eng := suspectEngine(c.g, workers)
					defer eng.Close()
					var res Result
					if err := eng.DecomposeInto(&res, suspectOpts(h)); err != nil {
						t.Fatal(err)
					}
					decomposeEqual(t, res.Core, want, "vs naive")
					if r := waveRecounts(eng); slices.Contains(c.waves, h) && r == 0 {
						t.Fatal("no capped dip was re-verified; the settings no longer reach the wave path")
					}
				})
			}
		}
	}
}

// TestImproveLBCarrierSkipExact checks the carrier rule: ImproveLB
// leaves out of its count and its cleaning every vertex whose best known
// lower bound already exceeds the interval's top, and floors LB3 at
// kmax+1 in their place. A carrier test that also took the vertices whose
// bound equals kmax floors LB3 one level too high on a vertex of core
// index kmax, which then settles in no interval. The graphs are the
// suspect corpus and the loss-bound shapes, at h = 2..4, under the
// adaptive plan and the paper's fixed widths S = 1 and 2, on the serial
// path (1 worker, where carriers are mostly vertices settled by a higher
// interval) and on the concurrent one (2 workers, schedule forced open,
// where only LB3 makes a carrier), each against the naive oracle.
func TestImproveLBCarrierSkipExact(t *testing.T) {
	forceParallel(t)
	graphs := map[string]*graph.Graph{}
	for _, c := range suspectCorpus(t) {
		graphs[c.name] = c.g
	}
	for name, g := range lossBoundShapes() {
		graphs[name] = g
	}
	for name, g := range graphs {
		for h := 2; h <= 4; h++ {
			want := NaiveDecompose(g, h)
			for _, size := range []int{0, 1, 2} {
				for _, workers := range []int{1, 2} {
					eng := NewEngine(g, workers)
					var res Result
					err := eng.DecomposeInto(&res, Options{H: h, PartitionSize: size})
					eng.Close()
					label := fmt.Sprintf("%s h=%d S=%d workers=%d", name, h, size, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					decomposeEqual(t, res.Core, want, label)
				}
			}
		}
	}
}

// cascadeCancelCtx reports itself canceled on the n-th poll made directly
// from improveLB's cleaning loops, and never elsewhere, so the
// cancellation lands mid-cascade (or mid-wave) deterministically.
type cascadeCancelCtx struct {
	left  atomic.Int64
	fired atomic.Bool
	done  chan struct{}
}

func (c *cascadeCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cascadeCancelCtx) Done() <-chan struct{}       { return c.done }
func (c *cascadeCancelCtx) Value(any) any               { return nil }
func (c *cascadeCancelCtx) Err() error {
	if c.fired.Load() {
		return context.Canceled
	}
	if !polledFromImproveLB() || c.left.Add(-1) > 0 {
		return nil
	}
	c.fired.Store(true)
	return context.Canceled
}

// polledFromImproveLB reports whether the cancellation poll under way was
// made by improveLB itself (not by a batch kernel it called).
func polledFromImproveLB() bool {
	pc := make([]uintptr, 16)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*cancelState).stop") {
			next, _ := frames.Next()
			return strings.HasSuffix(next.Function, ".(*partitionSolver).improveLB")
		}
		if !more {
			return false
		}
	}
}

// TestImproveLBCancelMidCascade cancels runs inside the cleaning loops on
// both schedules: the run must return ErrCanceled, and the same engine
// must then reproduce a fresh engine's cores. The graphs are BA graphs
// whose cleaning passes are long enough to reach a poll at each h.
func TestImproveLBCancelMidCascade(t *testing.T) {
	forceParallel(t)
	for _, c := range []struct{ h, n int }{{2, 800}, {3, 400}} {
		h, g := c.h, gen.BarabasiAlbert(c.n, 4, 21)
		want, err := Decompose(g, Options{H: h, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("h=%d/workers=%d", h, workers), func(t *testing.T) {
				eng := suspectEngine(g, workers)
				defer eng.Close()
				for _, polls := range []int64{1, 3} {
					ctx := &cascadeCancelCtx{done: make(chan struct{})}
					ctx.left.Store(polls)
					var res Result
					err := eng.DecomposeIntoCtx(ctx, &res, suspectOpts(h))
					if !ctx.fired.Load() {
						t.Fatalf("polls=%d: no cleaning-loop poll fired; grow the graph", polls)
					}
					if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
						t.Fatalf("polls=%d: got %v, want ErrCanceled", polls, err)
					}
					var after Result
					if err := eng.DecomposeInto(&after, Options{H: h}); err != nil {
						t.Fatal(err)
					}
					decomposeEqual(t, after.Core, want.Core, "post-cancel run")
				}
			})
		}
	}
}

// TestHLBUBCounterGolden pins the work counters of HLBUB on four
// datasets, so a change that loses (or gains) work shows up as a failing
// test rather than as drift in a benchmark record. The last column
// counts ImproveLB's suspect re-verifications: caAs reaches the capped-dip
// waves at both worker counts, the other three have none. FBco h=2 and
// caHe h=3 have cores well past k = 128, where the recount headroom grows
// with k. The 1-worker row is the serial carry path. The 2-worker row,
// under forceParallel, is the parallel Algorithm-5 peel plus the interval
// fan-out: its solvers share no mutable state, so each interval does the
// same work whichever solver claims it and the counters repeat exactly
// (the same values hold at 3 workers, which plan the same intervals). A
// change that moves these numbers on purpose updates them here, with the
// before and after recorded in CHANGES.md.
func TestHLBUBCounterGolden(t *testing.T) {
	forceParallel(t)
	type counters struct{ visits, hdegs, decrements, partitions, recounts int64 }
	golden := []struct {
		name     string
		h        int
		one, two counters
	}{
		{"jazz", 2, counters{117631, 821, 19737, 7, 0}, counters{157790, 1275, 17998, 7, 0}},
		{"caAs", 2, counters{941077, 9154, 129228, 6, 3}, counters{1375752, 14882, 156779, 6, 3}},
		{"FBco", 2, counters{2500892, 6565, 297658, 6, 0}, counters{4043023, 12483, 318807, 6, 0}},
		{"caHe", 3, counters{4420083, 9422, 444836, 6, 0}, counters{6902961, 17560, 450252, 6, 0}},
	}
	for _, c := range golden {
		g, err := datasets.Load(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			workers int
			want    counters
		}{{1, c.one}, {2, c.two}} {
			eng := NewEngine(g, run.workers)
			var res Result
			err = eng.DecomposeInto(&res, Options{H: c.h})
			recounts := waveRecounts(eng)
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			got := counters{st.Visits, st.HDegreeComputations, st.Decrements, int64(st.Partitions), recounts}
			if got != run.want {
				t.Errorf("%s h=%d workers=%d: visits, h-degree computations, decrements, partitions, suspect re-counts = %v; want %v",
					c.name, c.h, run.workers, got, run.want)
			}
		}
	}
}
