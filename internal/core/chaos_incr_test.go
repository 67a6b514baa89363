//go:build faultinject

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/incr"
	"repro/internal/leakcheck"
)

// TestChaosIncrementalMaintenance storms the incremental maintenance
// path — region closure (IncrRegion), localized splice (IncrSplice) and
// every engine site the repair peel shares with from-scratch runs — with
// injected panics, delays and cancellations while a single writer drives
// a toggle stream of edge edits. The contract under fire:
//
//   - every failure is a typed ErrCanceled or ErrEnginePanic wrap (panics
//     carrying the injected payload), never an untyped error or a hang;
//   - every injected failure strikes after the commit point, so the
//     maintainer must report Stale and keep serving the pre-batch indices;
//   - once the storm passes, one Refresh chain restores exactness
//     bit-identical to a from-scratch decomposition of the final graph;
//   - the campaign provably exercised both incremental fault sites.
func TestChaosIncrementalMaintenance(t *testing.T) {
	leakcheck.Check(t)
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (set KHCORE_CHAOS_SEED to reproduce)", seed)
	g := gen.ErdosRenyi(80, 160, 5)
	m, err := NewMaintainer(g, 1, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The storm cancels whatever update is in flight when a cancel fault
	// fires; the driver is single-threaded, so one slot suffices.
	var mu sync.Mutex
	var inflight context.CancelFunc
	faultinject.Enable(faultinject.Plan{
		Seed:       seed,
		PanicRate:  0.003,
		DelayRate:  0.01,
		Delay:      10 * time.Microsecond,
		CancelRate: 0.01,
		OnCancel: func() {
			mu.Lock()
			defer mu.Unlock()
			if inflight != nil {
				inflight()
			}
		},
	})
	defer faultinject.Disable()

	rng := gen.NewRNG(seed)
	n := g.NumVertices()
	apply := func(edit incr.Edit) error {
		ctx, cancel := context.WithCancel(context.Background())
		mu.Lock()
		inflight = cancel
		mu.Unlock()
		err := m.ApplyBatch(ctx, []incr.Edit{edit})
		mu.Lock()
		inflight = nil
		mu.Unlock()
		cancel()
		return err
	}
	checkFailure := func(err error) error {
		switch {
		case errors.Is(err, ErrCanceled):
		case errors.Is(err, ErrEnginePanic):
			var pe *EnginePanicError
			if !errors.As(err, &pe) || !faultinject.IsInjected(pe.Value) {
				return fmt.Errorf("panic error without an injected payload: %v", err)
			}
		default:
			return fmt.Errorf("untyped chaos error: %v", err)
		}
		if !m.Stale() {
			return fmt.Errorf("failed update did not mark the maintainer stale: %v", err)
		}
		return nil
	}
	for i := 0; i < 150; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		op := incr.Insert
		if m.Graph().HasEdge(u, v) {
			op = incr.Delete
		}
		if err := apply(incr.Edit{U: u, V: v, Op: op}); err != nil {
			if cerr := checkFailure(err); cerr != nil {
				t.Fatalf("edit %d: %v", i, cerr)
			}
		}
		checkHDegreeCache(t, m, false, fmt.Sprintf("edit %d", i))
	}

	// Coverage: the campaign must have reached both incremental sites.
	// (Hits resets on Disable, so read first.)
	hits := faultinject.Hits()
	faultinject.Disable()
	for _, site := range []faultinject.Site{faultinject.IncrRegion, faultinject.IncrSplice} {
		if hits[site] == 0 {
			t.Errorf("site %s never fired during the campaign", site)
		}
	}

	// Calm seas: drain the pending repair and demand bit-identical
	// equality with a from-scratch decomposition of the surviving graph.
	if err := m.Refresh(context.Background()); err != nil {
		t.Fatalf("post-storm refresh: %v", err)
	}
	if m.Stale() {
		t.Fatal("maintainer still stale after post-storm refresh")
	}
	want, err := Decompose(m.Graph(), Options{H: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "post-storm recovery")
	checkHDegreeCache(t, m, false, "post-storm recovery")
}

// TestChaosHDegreeCache injects a panic at each incremental fault site —
// the closure (IncrRegion) and the repair after its h-degree counts
// (IncrSplice) — into a localized caveman update. A recovered panic
// leaves every entry of the maintainer's h-degree cache unknown; the
// Refresh that repairs the pending region and the localized updates
// after it must keep every known entry exact while the cache refills.
func TestChaosHDegreeCache(t *testing.T) {
	leakcheck.Check(t)
	g, block := cavemanBlocks(12, 8)
	m, err := NewMaintainer(g, 2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stream := cavemanStream(g, block, 5, 12)
	for i, site := range []faultinject.Site{faultinject.IncrRegion, faultinject.IncrSplice} {
		faultinject.Enable(faultinject.Plan{Seed: chaosSeed(t), PanicRate: 1, Sites: []faultinject.Site{site}})
		err := m.ApplyBatch(context.Background(), stream[i])
		faultinject.Disable()
		if !errors.Is(err, ErrEnginePanic) || !m.Stale() {
			t.Fatalf("%s: got %v (stale %v), want an injected panic", site, err, m.Stale())
		}
		for v, d := range m.hdeg {
			if d >= 0 {
				t.Fatalf("%s: vertex %d's h-degree %d survived the panic", site, v, d)
			}
		}
		if err := m.Refresh(context.Background()); err != nil {
			t.Fatalf("%s: refresh: %v", site, err)
		}
		checkHDegreeCache(t, m, false, fmt.Sprintf("%s: refresh", site))
	}
	for i, batch := range stream[2:] {
		if err := m.ApplyBatch(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		checkHDegreeCache(t, m, false, fmt.Sprintf("batch %d", i))
	}
	want, err := Decompose(m.Graph(), Options{H: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	decomposeEqual(t, m.Core(), want.Core, "after the panics")
}
