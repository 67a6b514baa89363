package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
)

// TestCheckSettledReportsUnsettledVertex drives the end-of-run check of
// the h-LB+UB interval phase directly on a solver state: after a complete
// run it passes, and with one vertex's settle taken back — from the
// sequential solver's assigned set, or from the broadcast after the
// parallel fan-out — it returns an error wrapping ErrInvalidResult.
func TestCheckSettledReportsUnsettledVertex(t *testing.T) {
	forceParallel(t)
	g := gen.BarabasiAlbert(300, 3, 4)
	for _, workers := range []int{1, 2} {
		eng := NewEngine(g, workers)
		var res Result
		if err := eng.DecomposeInto(&res, Options{H: 2}); err != nil {
			t.Fatal(err)
		}
		parallel := workers > 1
		if parallel && eng.parSolvers < 2 {
			t.Fatalf("workers=%d: the interval fan-out did not run", workers)
		}
		if err := eng.checkSettled(parallel); err != nil {
			t.Fatalf("workers=%d: complete run reported %v", workers, err)
		}
		const v = 17
		if parallel {
			eng.bcast[v] = 0
		} else {
			eng.sv[0].assigned.Remove(v)
		}
		err := eng.checkSettled(parallel)
		if !errors.Is(err, ErrInvalidResult) {
			t.Fatalf("workers=%d: vertex %d unsettled, check returned %v", workers, v, err)
		}
		eng.Close()
	}
}
