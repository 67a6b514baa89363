package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/hbfs"
	"repro/internal/incr"
)

// checkHDegreeCache asserts that the maintainer's h-degree cache covers
// exactly the current graph's vertices and that every known entry equals
// a fresh HDegree count; with complete set, no entry may be unknown.
func checkHDegreeCache(t *testing.T, m *Maintainer, complete bool, label string) {
	t.Helper()
	g := m.Graph()
	if len(m.hdeg) != g.NumVertices() {
		t.Fatalf("%s: cache holds %d entries for %d vertices", label, len(m.hdeg), g.NumVertices())
	}
	tr := hbfs.NewTraversal(g)
	for v, d := range m.hdeg {
		if d < 0 {
			if complete {
				t.Fatalf("%s: vertex %d's h-degree is unknown", label, v)
			}
			continue
		}
		if want := tr.HDegree(v, m.h, nil); int(d) != want {
			t.Fatalf("%s: cached h-degree of %d is %d, want %d", label, v, d, want)
		}
	}
}

// TestHDegreeCacheExact is the differential test of the maintainer's
// h-degree cache, run after every batch: every known entry must equal a
// fresh count, and after every successful update — localized or the
// full-run fallback — every entry must be known. It covers caveman
// streams (localized) and a BA graph at h = 2 (fallback) at 1 and 2
// workers, batches that create vertices, updates canceled at every depth
// (the pending state) and the Refresh that repairs them. Injected panics
// are covered under -tags faultinject (TestChaosHDegreeCache).
func TestHDegreeCacheExact(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for h := 1; h <= 3; h++ {
			t.Run(fmt.Sprintf("caveman/h%d/w%d", h, workers), func(t *testing.T) {
				g, block := cavemanBlocks(6*h, uint64(h))
				m, err := NewMaintainer(g, h, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				checkHDegreeCache(t, m, true, "cold")
				localized := 0
				for i, batch := range cavemanStream(g, block, uint64(10+h), 12) {
					if err := m.ApplyBatch(context.Background(), batch); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					if m.LastStats().Incr.Localized {
						localized++
					}
					checkHDegreeCache(t, m, true, fmt.Sprintf("batch %d", i))
				}
				if localized == 0 {
					t.Error("no batch took the localized repair path")
				}
			})
		}
		t.Run(fmt.Sprintf("barabasi-albert/w%d", workers), func(t *testing.T) {
			m, err := NewMaintainer(gen.BarabasiAlbert(200, 2, 5), 2, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			rng := gen.NewRNG(9)
			fallback := 0
			for i := 0; i < 10; i++ {
				batch := randomBatch(t, m, rng, 1+rng.Intn(3))
				if i == 4 {
					n := m.Graph().NumVertices()
					batch = append(batch, incr.Edit{U: 0, V: n + 2, Op: incr.Insert})
				}
				if err := m.ApplyBatch(context.Background(), batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if !m.LastStats().Incr.Localized {
					fallback++
				}
				checkHDegreeCache(t, m, true, fmt.Sprintf("batch %d", i))
			}
			if fallback == 0 {
				t.Error("no batch took the full-run fallback")
			}
		})
	}

	t.Run("canceled", func(t *testing.T) {
		g, block := cavemanBlocks(8, 4)
		m, err := NewMaintainer(g, 2, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		stream := cavemanStream(g, block, 21, 9)
		canceled := 0
		for i, batch := range stream {
			// Cancel the batch ever deeper until it succeeds; each canceled
			// attempt leaves the batch pending, and the next attempt retries
			// it while stale. Every fourth batch is finished by Refresh.
			for fuel := int64(0); ; fuel++ {
				err := m.ApplyBatch(newCountdown(fuel), batch)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("batch %d fuel %d: %v", i, fuel, err)
				}
				canceled++
				checkHDegreeCache(t, m, false, fmt.Sprintf("batch %d canceled at fuel %d", i, fuel))
				if i%4 == 3 {
					if err := m.Refresh(context.Background()); err != nil {
						t.Fatalf("batch %d: refresh: %v", i, err)
					}
					break
				}
			}
			if m.Stale() {
				t.Fatalf("batch %d: still stale", i)
			}
			checkHDegreeCache(t, m, true, fmt.Sprintf("batch %d", i))
		}
		if canceled == 0 {
			t.Fatal("no update was canceled")
		}
		want, err := Decompose(m.Graph(), Options{H: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		decomposeEqual(t, m.Core(), want.Core, "after the canceled stream")
	})
}
