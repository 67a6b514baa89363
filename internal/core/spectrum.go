package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
)

// Spectrum holds the (k,h)-core indices of every vertex for all h in
// 1..MaxH — the per-vertex "spectrum" the paper's §6.1 and §7 propose as a
// richer structural signature than any single core index.
type Spectrum struct {
	// MaxH is the largest distance threshold computed.
	MaxH int
	// Core[h-1][v] is the (k,h)-core index of vertex v.
	Core [][]int
	// Stats aggregates the work across all levels.
	Stats Stats
}

// Index returns the core index of v at distance threshold h.
func (s *Spectrum) Index(v, h int) int { return s.Core[h-1][v] }

// Vector returns the spectrum of a single vertex: its core index for
// h = 1..MaxH (a fresh slice).
func (s *Spectrum) Vector(v int) []int {
	out := make([]int, s.MaxH)
	for h := 1; h <= s.MaxH; h++ {
		out[h-1] = s.Core[h-1][v]
	}
	return out
}

// DecomposeSpectrum computes the (k,h)-core decomposition for every
// h = 1..maxH in one pass through a throwaway Engine; see
// Engine.DecomposeSpectrum.
func DecomposeSpectrum(g *graph.Graph, maxH int, opts Options) (*Spectrum, error) {
	return DecomposeSpectrumCtx(context.Background(), g, maxH, opts)
}

// DecomposeSpectrumCtx is DecomposeSpectrum with cooperative cancellation:
// ctx is re-checked by every per-level decomposition at the granularity of
// DecomposeIntoCtx, so a deadline covers the whole sweep rather than one
// level. On cancellation the error wraps ErrCanceled and ctx.Err().
func DecomposeSpectrumCtx(ctx context.Context, g *graph.Graph, maxH int, opts Options) (*Spectrum, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: DecomposeSpectrum", ErrNilGraph)
	}
	e := NewEngine(g, opts.Workers)
	defer e.Close()
	return e.DecomposeSpectrumCtx(ctx, maxH, opts)
}

// DecomposeSpectrum computes the (k,h)-core decomposition for every
// h = 1..maxH in one pass, implementing the paper's future-work proposal
// (§7): since the (k,h−1)-core is contained in the (k,h)-core, the core
// index at h−1 is a valid per-vertex lower bound at h, and it is usually
// far tighter than LB2 — each level seeds the next, so the h-LB peeling
// starts close to the answer. Every level reuses the engine's scratch
// arena: one h-BFS pool, one bucket queue, one set of masks for all maxH
// decompositions. opts.H is ignored; opts.Algorithm selects HLB (default
// here) or HLBUB for the per-level solver, and HBZ disables the
// cross-level seeding (baseline behaviour).
func (e *Engine) DecomposeSpectrum(maxH int, opts Options) (*Spectrum, error) {
	return e.DecomposeSpectrumCtx(context.Background(), maxH, opts)
}

// DecomposeSpectrumCtx is Engine.DecomposeSpectrum with cooperative
// cancellation; see the package-level DecomposeSpectrumCtx.
func (e *Engine) DecomposeSpectrumCtx(ctx context.Context, maxH int, opts Options) (*Spectrum, error) {
	if maxH < 1 {
		return nil, fmt.Errorf("%w: maxH=%d (need maxH ≥ 1)", ErrInvalidH, maxH)
	}
	if opts.Approx.Enabled {
		// The spectrum sweep seeds each level with the previous level's
		// exact indices (a containment argument that does not survive
		// estimation error), so it is an exact-only surface.
		return nil, fmt.Errorf("%w: approximate mode is not supported for the spectrum sweep", ErrInvalidApprox)
	}
	sp := &Spectrum{MaxH: maxH, Core: make([][]int, maxH)}
	var prev []int32
	var res Result
	for h := 1; h <= maxH; h++ {
		o := opts
		o.H = h
		e.seedLB = prev
		res.Core = nil // each level keeps its own output slice
		if err := e.DecomposeIntoCtx(ctx, &res, o); err != nil {
			return nil, err
		}
		sp.Core[h-1] = res.Core
		sp.Stats.Visits += res.Stats.Visits
		sp.Stats.HDegreeComputations += res.Stats.HDegreeComputations
		sp.Stats.Decrements += res.Stats.Decrements
		sp.Stats.Partitions += res.Stats.Partitions
		sp.Stats.Duration += res.Stats.Duration
		prev = prev[:0]
		for _, c := range res.Core {
			prev = append(prev, int32(c))
		}
	}
	return sp, nil
}
