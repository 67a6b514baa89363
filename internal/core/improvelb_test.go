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

// waveRecounts replays the ImproveLB pass of every interval e planned in
// its last HLBUB run and returns how many suspects those passes
// re-counted: every h-degree computation beyond the pass's initial sweep
// over the partition is one suspect's re-verification. The cleaning reads
// neither LB3 nor settled state, so the replay cleans each partition
// exactly as the serial and the concurrent schedule did.
func waveRecounts(e *Engine) int64 {
	s := newPartitionSolver()
	s.bind(e.g, e.core, e.h, e.fixedSlack, nil, &e.cancel)
	s.t = e.pool.Traversal(0)
	var recounts int64
	for _, iv := range e.intervals {
		if !s.buildPartition(iv.kmin, e.ub) {
			continue
		}
		before := s.stats.HDegreeComputations + int64(len(s.part))
		s.capped.Clear()
		s.improveLB(s.part, iv.kmin, iv.kmax)
		recounts += s.stats.HDegreeComputations - before
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
// test rather than as drift in a benchmark record. caAs exercises
// ImproveLB's capped-dip waves; jazz has none. FBco h=2 and caHe h=3 have
// cores well past k = 128, where the recount headroom grows with k. The
// 1-worker row is the serial carry path. The 2-worker row, under
// forceParallel, is the parallel Algorithm-5 peel plus the interval
// fan-out: its solvers share no mutable state, so each interval does the
// same work whichever solver claims it and the counters repeat exactly
// (the same values hold at 3 workers, which plan the same intervals). A
// change that moves these numbers on purpose updates them here, with the
// before and after recorded in CHANGES.md.
func TestHLBUBCounterGolden(t *testing.T) {
	forceParallel(t)
	type counters struct{ visits, hdegs, decrements, partitions int64 }
	golden := []struct {
		name     string
		h        int
		one, two counters
	}{
		{"jazz", 2, counters{191679, 1989, 19161, 8}, counters{195646, 2028, 17909, 8}},
		{"caAs", 2, counters{1368160, 16327, 158065, 7}, counters{1599312, 19214, 184348, 7}},
		{"FBco", 2, counters{3686922, 11543, 407696, 7}, counters{4731620, 15288, 431855, 7}},
		{"caHe", 3, counters{6177959, 16032, 616310, 7}, counters{7722745, 20360, 620161, 7}},
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
			eng.Close()
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			got := counters{st.Visits, st.HDegreeComputations, st.Decrements, int64(st.Partitions)}
			if got != run.want {
				t.Errorf("%s h=%d workers=%d: visits, h-degree computations, decrements, partitions = %v; want %v",
					c.name, c.h, run.workers, got, run.want)
			}
		}
	}
}
