package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/gen"
)

// checkPhases fails unless every phase is non-negative and the phases sum
// to at most the run's end-to-end duration: the phases are disjoint spans
// of one run, so time that overflows Duration is double-counted somewhere.
func checkPhases(t *testing.T, label string, total time.Duration, phases ...time.Duration) {
	t.Helper()
	var sum time.Duration
	for i, p := range phases {
		if p < 0 {
			t.Errorf("%s: phase %d is negative (%v)", label, i, p)
		}
		sum += p
	}
	if sum > total {
		t.Errorf("%s: phases sum to %v, past the run's %v", label, sum, total)
	}
	if sum == 0 {
		t.Errorf("%s: no phase recorded any time", label)
	}
}

// TestPhasesAddUp pins the phase accounting of the three pipelines: HLBUB
// at 1 and 2 workers (schedule forced open), the approximate tier, and a
// Maintainer's localized repair. In each, the phases must be non-negative
// and add up to no more than the run's Duration.
func TestPhasesAddUp(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(800, 3, 5)
	for _, workers := range []int{1, 2} {
		eng := NewEngine(g, workers)
		for _, opts := range []Options{{H: 2}, {H: 2, Approx: ApproxOptions{Enabled: true, Seed: 7}}} {
			var res Result
			if err := eng.DecomposeInto(&res, opts); err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			label := fmt.Sprintf("workers=%d approx=%v", workers, opts.Approx.Enabled)
			if opts.Approx.Enabled {
				checkPhases(t, label, st.Duration, st.Approx.PhaseEstimate, st.Approx.PhasePeel)
			} else {
				checkPhases(t, label, st.Duration,
					st.PhaseHDegrees, st.PhaseLowerBounds, st.PhaseUpperBound, st.PhaseIntervals)
			}
		}
		eng.Close()

		m, err := NewMaintainer(cutRing(9, 16), 2, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rng := gen.NewRNG(uint64(workers))
		localized := 0
		for step := 0; step < 8; step++ {
			if err := m.ApplyBatch(context.Background(), randomBatch(t, m, rng, 1)); err != nil {
				t.Fatal(err)
			}
			st := m.LastStats()
			if st.Incr.Localized {
				localized++
			}
			checkPhases(t, fmt.Sprintf("workers=%d repair step %d", workers, step), st.Duration,
				st.Incr.PhaseSeed, st.Incr.PhaseClosure, st.Incr.PhasePeel)
		}
		m.Close()
		if localized == 0 {
			t.Errorf("workers=%d: no batch took the localized repair path", workers)
		}
	}
}
