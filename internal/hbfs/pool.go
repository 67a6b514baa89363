// Persistent worker pool for batch h-degree computations, mirroring §4.6
// of the paper (one h-BFS per vertex, dynamically assigned to threads).
// Long-lived helpers stay parked on a channel between batches, so the
// steady-state cost of a batch is one wake-up per helper plus the atomic
// cursor traffic.
//
// Besides the batch kernels, the pool exposes Run — a generic fan-out that
// hands every worker (its index and its dedicated Traversal) to a caller
// callback. This is the hand-off the parallel partition peeling is built
// on: the same parked helpers serve both the batch kernels and the
// partition-solver goroutines, and since a Pool runs one job at a time by
// contract, the two can never fight over workers. Every job — a batch
// kernel, Balls or Run — goes through one publish/join routine (fanOut)
// and one per-worker drain.
package hbfs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/vset"
)

// batchMin is the batch size below which the publisher runs the whole
// batch on worker 0 rather than waking the helpers.
const batchMin = 64

// batchChunk is the number of vertices a worker claims per cursor bump.
const batchChunk = 32

// kernel names the job a fan-out publishes: one of the per-vertex batch
// kernels, or a Run job.
type kernel uint8

const (
	kernelHDegree kernel = iota // HDegrees
	kernelCapped                // HDegreesCapped
	kernelSampled               // HDegreesSampled
	kernelBall                  // Balls
	kernelJob                   // Run
)

// Pool runs batch h-degree computations with a fixed number of workers.
// Helper goroutines are spawned lazily on the first fan-out and then
// persist, parked between jobs, until Close releases them — an unclosed
// multi-worker Pool leaks them. The publishing goroutine doubles as
// worker 0, so a single-worker pool never spawns anything. Visit counts
// from all workers aggregate into the pool. A Pool is NOT safe for
// concurrent use: one batch (or Run job) at a time.
type Pool struct {
	g       *graph.Graph
	workers int
	travs   []*Traversal

	// The published job. Written by the publisher before the helpers are
	// woken, read by helpers, and cleared after wg resolves — the wake
	// channel orders the writes, the WaitGroup orders the clear. kind
	// selects which of the remaining fields the drain reads.
	kind  kernel
	verts []int32
	h     int
	alive *vset.Set
	out   []int32
	limit int // kernelCapped: the count cap

	// kernelSampled: per-vertex RNG streams are derived from sampleSeed
	// inside the kernel, so the estimates are independent of which
	// worker — or how many workers — evaluate them.
	sampleBudget int
	sampleSeed   uint64

	ballFn BallFunc                       // kernelBall
	job    func(worker int, t *Traversal) // kernelJob: runs once per worker

	// cancelFn, when non-nil, is polled by every worker between batch
	// chunks; a true return makes the worker abandon the rest of the
	// batch. Set once (SetCancel) before any batch runs — the owner
	// (core.Engine) installs a check against its per-run cancellation
	// broadcast, so a canceled decomposition drains an in-flight batch
	// within one chunk per worker instead of finishing it.
	cancelFn func() bool

	cursor    atomic.Int64
	evaluated atomic.Int64
	wg        sync.WaitGroup

	// panicked holds the first panic captured from any participant of the
	// current fan-out. Helpers cannot let a panic escape (it would kill
	// the process, not the request), so every participant — worker 0
	// included — runs under capture, and the publisher re-panics on its
	// own goroutine after the WaitGroup join. That ordering guarantees the
	// pool's workers have quiesced before the panic unwinds into the
	// engine's caller, where EnginePool converts it into ErrEnginePanic
	// and quarantines the engine. A job run inline on worker 0 alone is
	// not captured: its panic unwinds with its original stack.
	panicked atomic.Pointer[capturedPanic]

	// wake carries worker indices 1..workers-1. Addressing the wake-ups by
	// index (rather than an anonymous token) is what enforces the
	// once-per-worker contract of a fan-out: a helper that finishes early
	// and loops back can only claim a *different* worker's index — with
	// its traversal — never re-run its own.
	wake    chan int
	quit    chan struct{}
	spawned bool
	closed  bool
}

// capturedPanic preserves a helper's panic value (and its stack, for
// operators digging through an ErrEnginePanic report) across the hop back
// to the publishing goroutine.
type capturedPanic struct {
	val   any
	stack []byte
}

// capture is deferred by every fan-out participant; it parks the first
// panic of the job in p.panicked instead of letting it kill the process.
// Later panics of the same job lose the CAS and are dropped — one
// representative failure is enough to quarantine the engine.
func (p *Pool) capture() {
	if r := recover(); r != nil {
		p.panicked.CompareAndSwap(nil, &capturedPanic{val: r, stack: debug.Stack()})
	}
}

// rethrow re-raises a captured panic on the publisher's goroutine. It
// runs only after wg.Wait and the shared-state clear, so by the time the
// panic unwinds into the caller every worker is parked again and the
// pool itself is reusable — only the owning engine's scratch is suspect.
func (p *Pool) rethrow() {
	if cp := p.panicked.Swap(nil); cp != nil {
		panic(cp.val)
	}
}

// NewPool creates a pool of the given size for graph g. workers ≤ 0 selects
// runtime.NumCPU().
func NewPool(g *graph.Graph, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		g:       g,
		workers: workers,
		travs:   make([]*Traversal, workers),
		wake:    make(chan int, workers-1),
		quit:    make(chan struct{}),
	}
	for i := range p.travs {
		p.travs[i] = NewTraversal(g)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// SetCancel installs a cancellation probe polled by every worker once per
// batch chunk, inline batches included: when fn reports true, workers
// abandon the remainder of the batch, leaving the unvisited entries of
// the output array stale. fn must be safe for concurrent use and cheap;
// nil removes the probe. Must be set while no batch or Run job is in
// flight — typically once, at pool-owner construction.
func (p *Pool) SetCancel(fn func() bool) { p.cancelFn = fn }

// Reset re-binds every worker traversal to g, reusing scratch capacity.
// Must not be called while a batch is in flight (helpers are parked
// between batches, so calls between batches are safe).
func (p *Pool) Reset(g *graph.Graph) {
	p.g = g
	for _, t := range p.travs {
		t.Reset(g)
	}
}

// Close retires the helper goroutines. Every pool with more than one
// worker must be closed by its owner; nothing else stops the helpers. It
// is idempotent and leaves the pool usable — subsequent batches simply
// run on worker 0 alone.
func (p *Pool) Close() {
	if p.spawned && !p.closed {
		close(p.quit)
	}
	p.closed = true
}

// helperLoop parks on the wake channel; each received index identifies the
// worker (and traversal) to impersonate for one round of the published
// job. The helpers are interchangeable — identity lives in the channel
// message, so every published index runs exactly once.
func helperLoop(p *Pool) {
	for {
		select {
		case <-p.quit:
			return
		case w := <-p.wake:
			p.work(w)
		}
	}
}

// work runs one worker's share of a fan-out under the panic-capture
// guard. The deferred pair runs LIFO: capture first (so the panic is
// parked before the publisher can observe quiescence), then wg.Done — a
// panicking worker still counts as finished, which is what lets the
// publisher's wg.Wait/rethrow sequence terminate.
func (p *Pool) work(w int) {
	defer p.wg.Done()
	defer p.capture()
	p.drain(w, p.travs[w])
}

// fanOut runs the published job to completion, clears it and re-raises a
// captured panic. The job runs on worker 0 alone, uncaptured, when it is
// inline, the pool has one worker or the pool is closed. Otherwise the
// helpers are woken (spawned on the first fan-out), the publisher joins
// them as worker 0 and waits for all of them.
func (p *Pool) fanOut(inline bool) {
	p.cursor.Store(0)
	if inline || p.workers == 1 || p.closed {
		p.drain(0, p.travs[0])
	} else {
		if !p.spawned {
			p.spawned = true
			for i := 1; i < p.workers; i++ {
				go helperLoop(p)
			}
		}
		p.wg.Add(p.workers)
		for w := 1; w < p.workers; w++ {
			p.wake <- w
		}
		p.work(0)
		p.wg.Wait()
	}
	p.verts, p.alive, p.out, p.ballFn, p.job = nil, nil, nil, nil, nil
	p.rethrow()
}

// drain is worker w's share of the published job. A Run job runs once.
// The other kernels claim batchChunk vertices off the cursor at a time,
// polling the owner's cancellation probe and the BatchChunk fault site
// once per chunk, until the batch is empty. The kernel is chosen once
// per chunk, so each inner loop is that kernel's alone.
func (p *Pool) drain(w int, t *Traversal) {
	if p.kind == kernelJob {
		p.job(w, t)
		return
	}
	verts, h, alive, out := p.verts, p.h, p.alive, p.out
	n := int64(len(verts))
	var evaluated int64
	for {
		start := p.cursor.Add(batchChunk) - batchChunk
		if start >= n || (p.cancelFn != nil && p.cancelFn()) {
			break
		}
		faultinject.Here(faultinject.BatchChunk)
		chunk := verts[start:min(start+batchChunk, n)]
		switch p.kind {
		case kernelBall:
			for _, v := range chunk {
				ball, shell := t.Ball(int(v), h, alive)
				p.ballFn(w, v, ball, shell)
			}
			continue
		case kernelHDegree:
			for _, v := range chunk {
				out[v] = int32(t.HDegree(int(v), h, alive))
			}
		case kernelCapped:
			for _, v := range chunk {
				out[v] = int32(t.HDegreeCapped(int(v), h, alive, p.limit))
			}
		case kernelSampled:
			for _, v := range chunk {
				out[v] = int32(t.HDegreeSampled(int(v), h, alive, p.sampleBudget, p.sampleSeed))
			}
		}
		for _, v := range chunk {
			if alive == nil || alive.Contains(int(v)) {
				evaluated++
			}
		}
	}
	p.evaluated.Add(evaluated)
}

// BallFunc consumes one h-ball produced by Pool.Balls: worker is the pool
// worker that ran the BFS, v the source vertex, and ball/shellStart the
// Traversal.Ball result (ball aliases that worker's traversal scratch and
// is valid only until the worker's next search, i.e. only for the duration
// of the call). Distinct workers invoke fn concurrently, so fn must
// synchronize any shared writes itself — per-vertex atomics or per-worker
// accumulators indexed by the worker argument.
type BallFunc func(worker int, v int32, ball []int32, shellStart int)

// Balls is the batch h-ball kernel behind the level-synchronous parallel
// Algorithm-5 peel: it computes Ball(v, h, alive) for every vertex in
// verts, dynamically distributed over the pool's workers via the atomic
// cursor, and hands each result to fn on the worker that produced it.
// It shares the batch kernels' inline rule: a batch under batchMin runs
// on worker 0 alone, so the frequent tiny frontiers of a bucket peel
// never pay a helper wake-up. The owner's cancellation probe is polled
// between chunks, like the h-degree kernels.
func (p *Pool) Balls(verts []int32, h int, alive *vset.Set, fn BallFunc) {
	if len(verts) == 0 || fn == nil {
		return
	}
	p.kind, p.verts, p.h, p.alive, p.ballFn = kernelBall, verts, h, alive, fn
	p.fanOut(len(verts) < batchMin)
}

// Visits returns the cumulative vertex-visit count across all workers.
func (p *Pool) Visits() int64 {
	var total int64
	for _, t := range p.travs {
		total += t.Visits()
	}
	return total
}

// Expansions returns the cumulative sampled-kernel frontier expansions
// across all workers (the approximate mode's "samples drawn").
func (p *Pool) Expansions() int64 {
	var total int64
	for _, t := range p.travs {
		total += t.Expansions()
	}
	return total
}

// Truncations returns the cumulative number of frontiers the sampling
// budget subsampled across all workers.
func (p *Pool) Truncations() int64 {
	var total int64
	for _, t := range p.travs {
		total += t.Truncations()
	}
	return total
}

// ResetVisits zeroes all worker counters.
func (p *Pool) ResetVisits() {
	for _, t := range p.travs {
		t.ResetVisits()
	}
}

// Traversal returns the dedicated traversal of worker i (0 ≤ i < Workers()).
// Worker 0's traversal doubles as the sequential scratch for the
// single-threaded parts of the algorithms.
func (p *Pool) Traversal(i int) *Traversal { return p.travs[i] }

// Run invokes fn(worker, traversal) concurrently on every pool worker —
// once per worker, each with its own index and dedicated Traversal — and
// returns when all invocations have completed. It shares the batch
// kernels' inline rule, minus the size test: a single-worker (or closed)
// pool runs fn on worker 0 alone with no goroutine traffic. fn typically
// loops over an external work queue (an atomic cursor) until it is
// drained.
//
// Run and the batch kernels share the same parked helper goroutines and
// the same one-job-at-a-time contract, so callers never have batch BFS
// work and Run jobs competing for a worker: fn must not invoke the pool's
// batch kernels (worker 0 would deadlock waiting on itself).
func (p *Pool) Run(fn func(worker int, t *Traversal)) {
	p.kind, p.job = kernelJob, fn
	p.fanOut(false)
}

// HDegrees computes deg^h_{G[alive]}(v) for every vertex in verts, writing
// results into out (indexed by vertex id). Vertices are distributed
// dynamically over the pool's workers via an atomic cursor. It returns the
// number of live sources actually evaluated — dead sources (absent from
// alive) cost nothing and report 0.
func (p *Pool) HDegrees(verts []int32, h int, alive *vset.Set, out []int32) int64 {
	return p.batch(kernelHDegree, verts, h, alive, out)
}

// HDegreesCapped is the batched threshold kernel: out[v] = min(deg^h(v),
// cap) for every v in verts, with each BFS aborting once cap discoveries
// prove the bound (see Traversal.HDegreeCapped). Returns the number of
// live sources evaluated.
func (p *Pool) HDegreesCapped(verts []int32, h int, alive *vset.Set, cap int, out []int32) int64 {
	if cap <= 0 {
		for _, v := range verts {
			out[v] = 0
		}
		return 0
	}
	p.limit = cap
	return p.batch(kernelCapped, verts, h, alive, out)
}

// HDegreesSampled is the batched estimation kernel behind the approximate
// decomposition mode: out[v] ≈ deg^h_{G[alive]}(v) for every v in verts,
// each estimate drawn from the budgeted sampled BFS of Traversal.
// HDegreeSampled under the per-vertex stream of seed. Because a vertex's
// stream depends only on (seed, v), the output array is bit-identical for
// any worker count and any chunk interleaving — the parallel schedule
// decides who computes an estimate, never what it is. budget ≤ 0 degrades
// to the exact batch kernel. Returns the number of live sources evaluated.
func (p *Pool) HDegreesSampled(verts []int32, h int, alive *vset.Set, budget int, seed uint64, out []int32) int64 {
	p.sampleBudget, p.sampleSeed = budget, seed
	return p.batch(kernelSampled, verts, h, alive, out)
}

// batch publishes one h-degree kernel over verts and returns the number of
// live sources the workers evaluated.
func (p *Pool) batch(k kernel, verts []int32, h int, alive *vset.Set, out []int32) int64 {
	if len(verts) == 0 {
		return 0
	}
	p.kind, p.verts, p.h, p.alive, p.out = k, verts, h, alive, out
	p.evaluated.Store(0)
	p.fanOut(len(verts) < batchMin)
	return p.evaluated.Load()
}

// HDegreesAll computes the h-degree of every vertex of the graph (alive
// mask applied) and returns a fresh slice indexed by vertex id. Dead
// vertices report 0.
func (p *Pool) HDegreesAll(h int, alive *vset.Set) []int32 {
	n := p.g.NumVertices()
	verts := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if alive == nil || alive.Contains(v) {
			verts = append(verts, int32(v))
		}
	}
	out := make([]int32, n)
	p.HDegrees(verts, h, alive, out)
	return out
}
