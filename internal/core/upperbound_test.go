package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
)

// TestPowerPeelingOrderSharedPeel pins what the PowerPeelingOrder dedupe
// onto the shared Algorithm-5 loop must preserve: the order is a
// permutation of the vertices, the returned bounds equal UpperBounds, and
// the peel level along the order never decreases (vertices are settled at
// a monotone frontier — the property that makes the reverse order a
// degeneracy ordering of G^h).
func TestPowerPeelingOrderSharedPeel(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 11)
	for h := 1; h <= 3; h++ {
		order, ub := PowerPeelingOrder(g, h, 2)
		n := g.NumVertices()
		if len(order) != n || len(ub) != n {
			t.Fatalf("h=%d: |order|=%d |ub|=%d, want %d", h, len(order), len(ub), n)
		}
		want := UpperBounds(g, h, 1)
		seen := make([]bool, n)
		prev := int32(0)
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("h=%d: order is not a permutation (vertex %d)", h, v)
			}
			seen[v] = true
			if ub[v] < prev {
				t.Fatalf("h=%d: peel level decreases along the order at vertex %d (%d after %d)",
					h, v, ub[v], prev)
			}
			prev = ub[v]
		}
		for v := range want {
			if ub[v] != want[v] {
				t.Fatalf("h=%d vertex %d: PowerPeelingOrder ub %d, UpperBounds %d", h, v, ub[v], want[v])
			}
		}
	}
	// h = 0 defaults to the standard threshold 2, matching UpperBounds.
	_, ubDefault := PowerPeelingOrder(g, 0, 1)
	want := UpperBounds(g, 2, 1)
	for v := range want {
		if ubDefault[v] != want[v] {
			t.Fatalf("vertex %d: h=0 default gave ub %d, want h=2's %d", v, ubDefault[v], want[v])
		}
	}
}

// TestPowerPeelingOrderCtxContract pins the PR-4 error contract on the new
// Ctx variant: typed sentinels for misuse, ErrCanceled (wrapping the
// context's error) on cancellation, and empty — not nil-panicking —
// results from the plain wrapper on misuse.
func TestPowerPeelingOrderCtxContract(t *testing.T) {
	g := gen.Path(8)
	bg := context.Background()
	if _, _, err := PowerPeelingOrderCtx(bg, nil, 2, 1); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph: %v, want ErrNilGraph", err)
	}
	if _, _, err := PowerPeelingOrderCtx(bg, g, 0, 1); !errors.Is(err, ErrInvalidH) {
		t.Errorf("h=0: %v, want ErrInvalidH", err)
	}
	canceled, cancel := context.WithCancel(bg)
	cancel()
	_, _, err := PowerPeelingOrderCtx(canceled, g, 2, 1)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if order, ub := PowerPeelingOrder(nil, 2, 1); len(order) != 0 || len(ub) != 0 {
		t.Errorf("plain wrapper on nil graph: %v/%v, want empty", order, ub)
	}
	order, ub, err := PowerPeelingOrderCtx(bg, g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder, wantUB := PowerPeelingOrder(g, 2, 1)
	if len(order) != len(wantOrder) || len(ub) != len(wantUB) {
		t.Fatalf("ctx and plain variants disagree on sizes")
	}
	for i := range order {
		if order[i] != wantOrder[i] {
			t.Fatalf("position %d: ctx order %d, plain %d", i, order[i], wantOrder[i])
		}
	}
}

// TestPowerPeelDecrementAccounting verifies the dedupe restored the work
// counters PowerPeelingOrder used to skip: an HLBUB run on a connected
// graph must report Algorithm-5 decrements.
func TestPowerPeelDecrementAccounting(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 7)
	e := NewEngine(g, 1)
	defer e.Close()
	res, err := e.Decompose(Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Decrements == 0 {
		t.Error("HLBUB run reported zero Algorithm-5/peeling decrements")
	}
	if res.Stats.PhaseUpperBound <= 0 || res.Stats.PhaseIntervals <= 0 {
		t.Errorf("phase breakdown not recorded: UB=%v intervals=%v",
			res.Stats.PhaseUpperBound, res.Stats.PhaseIntervals)
	}
}
