package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
)

// TestCheckSettledReportsUnsettledVertex drives the end-of-run check of
// the h-LB+UB interval phase directly on a solver state: after a complete
// run it passes, and with one vertex's settle taken back — from whichever
// bound solver's assigned set holds it: the sequential solver, or one of
// the parallel fan-out's fleet — it returns an error wrapping
// ErrInvalidResult.
func TestCheckSettledReportsUnsettledVertex(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(300, 3, 4)
	for _, workers := range []int{1, 2} {
		eng := NewEngine(g, workers)
		var res Result
		if err := eng.DecomposeInto(&res, Options{H: 2}); err != nil {
			t.Fatal(err)
		}
		bound := eng.sv[:1]
		if workers > 1 {
			if eng.parSolvers < 2 {
				t.Fatalf("workers=%d: the interval fan-out did not run", workers)
			}
			bound = eng.sv[:eng.parSolvers]
		}
		if err := eng.checkSettled(bound); err != nil {
			t.Fatalf("workers=%d: complete run reported %v", workers, err)
		}
		const v = 17
		held := 0
		for _, s := range bound {
			if s.assigned.Contains(v) {
				s.assigned.Remove(v)
				held++
			}
		}
		if held != 1 {
			t.Fatalf("workers=%d: vertex %d settled by %d solvers, want 1", workers, v, held)
		}
		err := eng.checkSettled(bound)
		if !errors.Is(err, ErrInvalidResult) {
			t.Fatalf("workers=%d: vertex %d unsettled, check returned %v", workers, v, err)
		}
		eng.Close()
	}
}
