package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// The sentinel errors of the serving contract. Every entry point of the
// package — Decompose and its ctx variants, the Engine methods, the
// Maintainer updates, the bound and validation helpers, and the EnginePool
// — wraps one of these, so callers dispatch with errors.Is instead of
// string matching.
var (
	// ErrNilGraph is returned when a nil *graph.Graph reaches an entry
	// point that needs one.
	ErrNilGraph = errors.New("khcore: nil graph")
	// ErrInvalidH is returned for a distance threshold outside h ≥ 1 (or
	// an invalid maxH in the spectrum API).
	ErrInvalidH = errors.New("khcore: invalid distance threshold")
	// ErrUnknownAlgorithm is returned for an Options.Algorithm value that
	// names none of HLBUB, HLB, HBZ.
	ErrUnknownAlgorithm = errors.New("khcore: unknown algorithm")
	// ErrBaselineGated is returned when the h-BZ baseline is selected
	// without Options.AllowBaseline: it is ~45× slower than h-LB+UB and
	// must never be reached by accident from a serving path.
	ErrBaselineGated = errors.New("khcore: h-BZ baseline gated (set Options.AllowBaseline)")
	// ErrCanceled is returned when a context canceled or timed out a run.
	// The returned error also wraps the context's own error, so both
	// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled)
	// (or context.DeadlineExceeded) hold.
	ErrCanceled = errors.New("khcore: canceled")
	// ErrPoolClosed is returned by EnginePool operations after Close.
	ErrPoolClosed = errors.New("khcore: engine pool closed")
	// ErrInvalidApprox is returned for an invalid Options.Approx
	// configuration: Epsilon or Confidence outside (0, 1), a negative
	// SampleBudget, combining approximate mode with a non-default
	// algorithm, or requesting it from an exact-only surface (the
	// Maintainer and the spectrum API).
	ErrInvalidApprox = errors.New("khcore: invalid approximate-mode options")
	// ErrInvalidResult is returned by the validation surfaces — Validate
	// against the naive oracle, BuildHierarchy's input checks — when a
	// decomposition is malformed or inconsistent with its graph, and by an
	// h-LB+UB run whose interval peel left a vertex unsettled.
	ErrInvalidResult = errors.New("khcore: invalid decomposition result")
	// ErrBadEdit is returned by the Maintainer for an edge edit that
	// cannot apply: inserting a present edge, deleting an absent one, or
	// an out-of-range/self-loop endpoint pair. The first two cases carry
	// the finer sentinels ErrEdgeExists and ErrNoSuchEdge, which wrap
	// ErrBadEdit — errors.Is against either level holds.
	ErrBadEdit = errors.New("khcore: bad edge edit")
	// ErrEnginePanic is returned by the EnginePool conveniences when the
	// engine serving the request panicked. The panicking engine's scratch
	// is presumed corrupt: the pool quarantines it and rebuilds the slot
	// in the background, so the request that observed the panic is the
	// only one affected — retrying is safe. The concrete error is an
	// *EnginePanicError carrying the panic value and stack.
	ErrEnginePanic = errors.New("khcore: engine panicked")
)

// The fine-grained edit sentinels. Both wrap ErrBadEdit, so existing
// errors.Is(err, ErrBadEdit) dispatch keeps matching while callers that
// care (idempotent mutation clients, the khserve error mapper) can tell
// the two apart.
var (
	// ErrEdgeExists is returned when inserting an edge that is already
	// present.
	ErrEdgeExists = fmt.Errorf("%w: edge exists", ErrBadEdit)
	// ErrNoSuchEdge is returned when deleting an edge that is not present.
	ErrNoSuchEdge = fmt.Errorf("%w: no such edge", ErrBadEdit)
)

// EnginePanicError is the concrete error behind ErrEnginePanic: one
// recovered engine panic, converted into an error at the EnginePool
// boundary so a serving process degrades by one request instead of
// crashing. Value is the original panic value (fault-injection campaigns
// identify their own panics through it); Stack is the goroutine stack at
// the recovery point. For panics that originated on an h-BFS worker and
// were re-raised on the publisher after quiescence, Stack shows where
// the panic surfaced, not where it was thrown.
type EnginePanicError struct {
	// Op names the EnginePool entry point that observed the panic.
	Op string
	// Value is the original panic value.
	Value any
	// Stack is the stack at the recovery point (see type comment).
	Stack []byte
}

func (e *EnginePanicError) Error() string {
	return fmt.Sprintf("%v: %s: %v", ErrEnginePanic, e.Op, e.Value)
}

// Unwrap makes errors.Is(err, ErrEnginePanic) hold.
func (e *EnginePanicError) Unwrap() error { return ErrEnginePanic }

// CanceledError wraps a context's cancellation cause so that the result
// satisfies errors.Is against both ErrCanceled and the underlying
// context.Canceled / context.DeadlineExceeded. It is the one place the
// serving contract's error shape is built; sibling packages (hclub) reuse
// it rather than re-deriving the wrap.
func CanceledError(ctx context.Context) error {
	cause := context.Canceled
	if ctx != nil && ctx.Err() != nil {
		cause = ctx.Err()
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// cancelState is the cooperative-cancellation broadcast for one run. The
// run's context is polled by whichever goroutine reaches a check point —
// the sequential peeling loop, a partition solver claiming or peeling an
// interval, or an h-BFS pool worker between batch chunks — and the first
// observation of cancellation latches the fired flag, which every later
// check reads with one atomic load. A nil context (the non-ctx
// compatibility wrappers, or any context whose Done channel is nil) makes
// every check a single predictable branch, keeping the happy path at its
// existing zero steady-state cost.
type cancelState struct {
	ctx   context.Context // nil when the run is not cancellable
	fired atomic.Bool
}

// bindRun arms the state for one run. Contexts that can never be canceled
// (Background, TODO — Done() == nil) disarm the checks entirely.
func (c *cancelState) bindRun(ctx context.Context) {
	c.ctx = nil
	c.fired.Store(false)
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
	}
}

// release drops the context reference at the end of a run, so an idle
// (e.g. pooled) engine never pins a finished request's context chain —
// with its deadline timer and attached values — until the next checkout.
// Must only be called after the run's workers have quiesced.
func (c *cancelState) release() { c.ctx = nil }

// stop reports whether the run has been canceled. Safe for concurrent use;
// callers amortize it over a few hundred units of real work.
func (c *cancelState) stop() bool {
	if c.ctx == nil {
		return false
	}
	if c.fired.Load() {
		return true
	}
	if c.ctx.Err() != nil {
		c.fired.Store(true)
		return true
	}
	return false
}

// cancelCheckMask amortizes the cancellation polls in the peeling loops: a
// check runs once per (mask+1) loop iterations, each of which does at
// least O(1) bucket work and often a truncated h-BFS, so the poll cost
// vanishes while cancellation latency stays far below one partition
// interval.
const cancelCheckMask = 255
