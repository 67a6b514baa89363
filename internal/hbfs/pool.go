// Persistent worker pool for batch h-degree computations, mirroring §4.6
// of the paper (one h-BFS per vertex, dynamically assigned to threads).
// Earlier revisions spawned fresh goroutines on every batch; the pool now
// keeps long-lived helpers parked on a channel between batches, so the
// steady-state cost of a batch is one wake-up per helper plus the atomic
// cursor traffic.
//
// Besides the batch kernels, the pool exposes Run — a generic fan-out that
// hands every worker (its index and its dedicated Traversal) to a caller
// callback. This is the hand-off the parallel partition peeling is built
// on: the same parked helpers serve both the batch kernels and the
// partition-solver goroutines, and since a Pool runs one job at a time by
// contract, the two can never fight over workers.
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

// DefaultBatchMin is the default batch size below which the publisher runs
// the whole batch on worker 0 rather than waking the helpers. Tunable per
// pool via SetTuning.
const DefaultBatchMin = 64

// DefaultBatchChunk is the default number of vertices a worker claims per
// cursor bump. Tunable per pool via SetTuning.
const DefaultBatchChunk = 32

// Pool runs batch h-degree computations with a fixed number of workers.
// Helper goroutines are spawned lazily on the first large batch and then
// persist, parked between batches; the publishing goroutine doubles as
// worker 0, so a single-worker pool never spawns anything. Visit counts
// from all workers aggregate into the pool. A Pool is NOT safe for
// concurrent use: one batch (or Run job) at a time.
type Pool struct {
	s *poolShared
}

// poolShared is the state the helper goroutines share with the Pool that
// owns them. The helpers park until Close releases them; an unclosed
// multi-worker Pool leaks them.
type poolShared struct {
	g       *graph.Graph
	workers int
	travs   []*Traversal

	// Batch tuning, adjustable between batches via SetTuning.
	batchMin   int
	batchChunk int64

	// The published batch. Written by the publisher before the helpers are
	// woken, read by helpers, and cleared after wg resolves — the wake
	// channel orders the writes, the WaitGroup orders the clear.
	verts []int32
	h     int
	alive *vset.Set
	out   []int32
	cap   int // 0 = exact h-degrees, > 0 = capped kernel

	// Sampled-batch mode (HDegreesSampled): when sampled is true the
	// drain runs the budgeted estimation kernel instead of the exact one.
	// Per-vertex RNG streams are derived from sampleSeed inside the
	// kernel, so the estimates are independent of which worker — or how
	// many workers — evaluate them.
	sampled      bool
	sampleBudget int
	sampleSeed   uint64

	// job, when non-nil, replaces the batch drain: each woken worker calls
	// job(workerIndex, traversal) exactly once (Run). Published and cleared
	// under the same wake/wg ordering as the batch fields.
	job func(worker int, t *Traversal)

	// ballFn, when non-nil, replaces the h-degree drain with the Balls
	// drain: workers claim cursor chunks and hand every claimed vertex's
	// h-ball to the callback. Published and cleared under the same wake/wg
	// ordering as the batch fields.
	ballFn BallFunc

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
	// current batch / Run job / Balls fan-out. Helpers cannot let a panic
	// escape (it would kill the process, not the request), so every
	// participant — worker 0's inline drain included — runs under capture,
	// and the publisher re-panics on its own goroutine after the WaitGroup
	// join. That ordering guarantees the pool's workers have quiesced
	// before the panic unwinds into the engine's caller, where EnginePool
	// converts it into ErrEnginePanic and quarantines the engine.
	panicked atomic.Pointer[capturedPanic]

	// wake carries worker indices 1..workers-1. Addressing the wake-ups by
	// index (rather than an anonymous token) is what enforces the
	// once-per-worker contract of Run and the batch fan-out: a helper that
	// finishes early and loops back can only claim a *different* worker's
	// index — with its traversal — never re-run its own.
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

// capture is deferred by every batch participant; it parks the first
// panic of the job in s.panicked instead of letting it kill the process.
// Later panics of the same job lose the CAS and are dropped — one
// representative failure is enough to quarantine the engine.
func (s *poolShared) capture() {
	if r := recover(); r != nil {
		s.panicked.CompareAndSwap(nil, &capturedPanic{val: r, stack: debug.Stack()})
	}
}

// rethrow re-raises a captured panic on the publisher's goroutine. It
// runs only after wg.Wait and the shared-state clear, so by the time the
// panic unwinds into the caller every worker is parked again and the
// pool itself is reusable — only the owning engine's scratch is suspect.
func (s *poolShared) rethrow() {
	if cp := s.panicked.Swap(nil); cp != nil {
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
	s := &poolShared{
		g:          g,
		workers:    workers,
		travs:      make([]*Traversal, workers),
		batchMin:   DefaultBatchMin,
		batchChunk: DefaultBatchChunk,
		wake:       make(chan int, workers-1),
		quit:       make(chan struct{}),
	}
	for i := range s.travs {
		s.travs[i] = NewTraversal(g)
	}
	return &Pool{s: s}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.s.workers }

// SetTuning adjusts the batch dispatch parameters: batchMin is the batch
// size below which the publisher skips waking the helpers, batchChunk the
// number of vertices a worker claims per cursor bump. Values ≤ 0 restore
// the defaults. Must not be called while a batch or Run job is in flight.
func (p *Pool) SetTuning(batchMin, batchChunk int) {
	if batchMin <= 0 {
		batchMin = DefaultBatchMin
	}
	if batchChunk <= 0 {
		batchChunk = DefaultBatchChunk
	}
	p.s.batchMin = batchMin
	p.s.batchChunk = int64(batchChunk)
}

// SetCancel installs a cancellation probe polled by every worker between
// batch chunks (and by the inline small-batch path every chunk's worth of
// sources): when fn reports true, workers abandon the remainder of the
// batch, leaving the unvisited entries of the output array stale. fn must
// be safe for concurrent use and cheap; nil removes the probe. Must be set
// while no batch or Run job is in flight — typically once, at pool-owner
// construction.
func (p *Pool) SetCancel(fn func() bool) { p.s.cancelFn = fn }

// Reset re-binds every worker traversal to g, reusing scratch capacity.
// Must not be called while a batch is in flight (helpers are parked
// between batches, so calls between batches are safe).
func (p *Pool) Reset(g *graph.Graph) {
	p.s.g = g
	for _, t := range p.s.travs {
		t.Reset(g)
	}
}

// Close retires the helper goroutines. Every pool with more than one
// worker must be closed by its owner; nothing else stops the helpers. It
// is idempotent and leaves the pool usable — subsequent batches simply
// run on worker 0 alone.
func (p *Pool) Close() {
	s := p.s
	if s.spawned && !s.closed {
		close(s.quit)
	}
	s.closed = true
}

// ensureHelpers spawns the persistent helper goroutines on first use.
func (p *Pool) ensureHelpers() {
	s := p.s
	if s.spawned {
		return
	}
	s.spawned = true
	for i := 1; i < s.workers; i++ {
		go helperLoop(s)
	}
}

// helperLoop parks on the wake channel; each received index identifies the
// worker (and traversal) to impersonate for one round of the published
// batch (or Run job). The helpers are interchangeable — identity lives in
// the channel message, so every published index runs exactly once.
func helperLoop(s *poolShared) {
	for {
		select {
		case <-s.quit:
			return
		case w := <-s.wake:
			s.work(w)
		}
	}
}

// work runs one woken worker's share of the published job under the
// panic-capture guard. The deferred pair runs LIFO: capture first (so
// the panic is parked before the publisher can observe quiescence), then
// wg.Done — a panicking worker still counts as finished, which is what
// lets the publisher's wg.Wait/rethrow sequence terminate.
func (s *poolShared) work(w int) {
	defer s.wg.Done()
	defer s.capture()
	t := s.travs[w]
	switch {
	case s.job != nil:
		s.job(w, t)
	case s.ballFn != nil:
		s.runBalls(w, t)
	default:
		s.run(t)
	}
}

// run drains batch chunks via the atomic cursor until the batch is empty
// (or the owner's cancellation probe fires).
func (s *poolShared) run(t *Traversal) {
	n := int64(len(s.verts))
	chunk := s.batchChunk
	var evaluated int64
	for {
		if s.cancelFn != nil && s.cancelFn() {
			break
		}
		faultinject.Here(faultinject.BatchChunk)
		start := s.cursor.Add(chunk) - chunk
		if start >= n {
			break
		}
		end := start + chunk
		if end > n {
			end = n
		}
		for _, v := range s.verts[start:end] {
			if s.alive == nil || s.alive.Contains(int(v)) {
				evaluated++
			}
			switch {
			case s.sampled:
				s.out[v] = int32(t.HDegreeSampled(int(v), s.h, s.alive, s.sampleBudget, s.sampleSeed))
			case s.cap > 0:
				s.out[v] = int32(t.HDegreeCapped(int(v), s.h, s.alive, s.cap))
			default:
				s.out[v] = int32(t.HDegree(int(v), s.h, s.alive))
			}
		}
	}
	s.evaluated.Add(evaluated)
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
// Small batches (under the pool's batchMin) run inline on worker 0, so
// the frequent tiny frontiers of a bucket peel never pay a helper
// wake-up. The owner's cancellation probe is polled between chunks, like
// the h-degree kernels.
func (p *Pool) Balls(verts []int32, h int, alive *vset.Set, fn BallFunc) {
	if len(verts) == 0 || fn == nil {
		return
	}
	s := p.s
	if s.workers == 1 || s.closed || len(verts) < s.batchMin {
		t := s.travs[0]
		for i, v := range verts {
			if int64(i)%s.batchChunk == 0 {
				if s.cancelFn != nil && s.cancelFn() {
					break
				}
				faultinject.Here(faultinject.BatchChunk)
			}
			ball, shell := t.Ball(int(v), h, alive)
			fn(0, v, ball, shell)
		}
		return
	}
	p.ensureHelpers()
	s.verts, s.h, s.alive, s.ballFn = verts, h, alive, fn
	s.cursor.Store(0)
	helpers := s.workers - 1
	s.wg.Add(helpers)
	for i := 1; i <= helpers; i++ {
		s.wake <- i
	}
	s.runBallsCaptured(0, s.travs[0])
	s.wg.Wait()
	s.verts, s.alive, s.ballFn = nil, nil, nil
	s.rethrow()
}

// runBallsCaptured is worker 0's drain: identical to the helpers' except
// the capture guard parks a panic for rethrow instead of letting it skip
// the wg.Wait below (which would leave helpers racing cleared state).
func (s *poolShared) runBallsCaptured(worker int, t *Traversal) {
	defer s.capture()
	s.runBalls(worker, t)
}

// runBalls drains ball chunks via the atomic cursor until the batch is
// empty (or the owner's cancellation probe fires).
func (s *poolShared) runBalls(worker int, t *Traversal) {
	n := int64(len(s.verts))
	chunk := s.batchChunk
	fn := s.ballFn
	for {
		if s.cancelFn != nil && s.cancelFn() {
			break
		}
		faultinject.Here(faultinject.BatchChunk)
		start := s.cursor.Add(chunk) - chunk
		if start >= n {
			break
		}
		end := start + chunk
		if end > n {
			end = n
		}
		for _, v := range s.verts[start:end] {
			ball, shell := t.Ball(int(v), s.h, s.alive)
			fn(worker, v, ball, shell)
		}
	}
}

// Visits returns the cumulative vertex-visit count across all workers.
func (p *Pool) Visits() int64 {
	var total int64
	for _, t := range p.s.travs {
		total += t.Visits()
	}
	return total
}

// Expansions returns the cumulative sampled-kernel frontier expansions
// across all workers (the approximate mode's "samples drawn").
func (p *Pool) Expansions() int64 {
	var total int64
	for _, t := range p.s.travs {
		total += t.Expansions()
	}
	return total
}

// Truncations returns the cumulative number of frontiers the sampling
// budget subsampled across all workers.
func (p *Pool) Truncations() int64 {
	var total int64
	for _, t := range p.s.travs {
		total += t.Truncations()
	}
	return total
}

// ResetVisits zeroes all worker counters.
func (p *Pool) ResetVisits() {
	for _, t := range p.s.travs {
		t.ResetVisits()
	}
}

// Traversal returns the dedicated traversal of worker i (0 ≤ i < Workers()).
// Worker 0's traversal doubles as the sequential scratch for the
// single-threaded parts of the algorithms.
func (p *Pool) Traversal(i int) *Traversal { return p.s.travs[i] }

// Run invokes fn(worker, traversal) concurrently on every pool worker —
// once per worker, each with its own index and dedicated Traversal — and
// returns when all invocations have completed. The publishing goroutine
// doubles as worker 0, so a single-worker (or closed) pool runs fn inline
// with no goroutine traffic. fn typically loops over an external work
// queue (an atomic cursor) until it is drained.
//
// Run and the batch kernels share the same parked helper goroutines and
// the same one-job-at-a-time contract, so callers never have batch BFS
// work and Run jobs competing for a worker: fn must not invoke the pool's
// batch kernels (worker 0 would deadlock waiting on itself).
func (p *Pool) Run(fn func(worker int, t *Traversal)) {
	s := p.s
	if s.workers == 1 || s.closed {
		fn(0, s.travs[0])
		return
	}
	p.ensureHelpers()
	s.job = fn
	helpers := s.workers - 1
	s.wg.Add(helpers)
	for i := 1; i <= helpers; i++ {
		s.wake <- i
	}
	s.jobCaptured(0, s.travs[0])
	s.wg.Wait()
	s.job = nil
	s.rethrow()
}

// jobCaptured runs worker 0's share of a Run job under the capture
// guard, mirroring runBallsCaptured.
func (s *poolShared) jobCaptured(w int, t *Traversal) {
	defer s.capture()
	s.job(w, t)
}

// HDegrees computes deg^h_{G[alive]}(v) for every vertex in verts, writing
// results into out (indexed by vertex id). Vertices are distributed
// dynamically over the pool's workers via an atomic cursor. It returns the
// number of live sources actually evaluated — dead sources (absent from
// alive) cost nothing and report 0.
func (p *Pool) HDegrees(verts []int32, h int, alive *vset.Set, out []int32) int64 {
	return p.batch(verts, h, alive, out, 0)
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
	return p.batch(verts, h, alive, out, cap)
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
	s := p.s
	s.sampled, s.sampleBudget, s.sampleSeed = true, budget, seed
	evaluated := p.batch(verts, h, alive, out, 0)
	s.sampled, s.sampleBudget, s.sampleSeed = false, 0, 0
	return evaluated
}

func (p *Pool) batch(verts []int32, h int, alive *vset.Set, out []int32, cap int) int64 {
	if len(verts) == 0 {
		return 0
	}
	s := p.s
	if s.workers == 1 || s.closed || len(verts) < s.batchMin {
		t := s.travs[0]
		var evaluated int64
		for i, v := range verts {
			if int64(i)%s.batchChunk == 0 {
				if s.cancelFn != nil && s.cancelFn() {
					break
				}
				faultinject.Here(faultinject.BatchChunk)
			}
			if alive == nil || alive.Contains(int(v)) {
				evaluated++
			}
			switch {
			case s.sampled:
				out[v] = int32(t.HDegreeSampled(int(v), h, alive, s.sampleBudget, s.sampleSeed))
			case cap > 0:
				out[v] = int32(t.HDegreeCapped(int(v), h, alive, cap))
			default:
				out[v] = int32(t.HDegree(int(v), h, alive))
			}
		}
		return evaluated
	}
	p.ensureHelpers()
	s.verts, s.h, s.alive, s.out, s.cap = verts, h, alive, out, cap
	s.cursor.Store(0)
	s.evaluated.Store(0)
	helpers := s.workers - 1
	s.wg.Add(helpers)
	for i := 1; i <= helpers; i++ {
		s.wake <- i
	}
	s.runCaptured(s.travs[0])
	s.wg.Wait()
	s.verts, s.alive, s.out = nil, nil, nil
	evaluated := s.evaluated.Load()
	s.rethrow()
	return evaluated
}

// runCaptured is worker 0's h-degree drain under the capture guard,
// mirroring runBallsCaptured.
func (s *poolShared) runCaptured(t *Traversal) {
	defer s.capture()
	s.run(t)
}

// HDegreesAll computes the h-degree of every vertex of the graph (alive
// mask applied) and returns a fresh slice indexed by vertex id. Dead
// vertices report 0.
func (p *Pool) HDegreesAll(h int, alive *vset.Set) []int32 {
	n := p.s.g.NumVertices()
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
