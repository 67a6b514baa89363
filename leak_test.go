package khcore_test

import (
	"context"
	"fmt"
	"testing"

	khcore "repro"
	"repro/internal/leakcheck"
)

// TestOneShotEntryPointsLeakNoGoroutines calls every public entry point
// that builds and discards its own engine or h-BFS pool, and checks that
// none leaves a parked helper goroutine behind: one-shot paths must close
// what they open. Workers 0 selects NumCPU, which spawns no helper on a
// single-CPU host, so an explicit three-worker pass makes the check bite
// on every host.
func TestOneShotEntryPointsLeakNoGoroutines(t *testing.T) {
	g := khcore.BarabasiAlbert(400, 3, 42)
	bg := context.Background()
	canceled, cancel := context.WithCancel(bg)
	cancel()
	for _, workers := range []int{0, 3} {
		opts := khcore.Options{H: 2, Workers: workers}
		approx := opts
		approx.Approx = khcore.ApproxOptions{Enabled: true, Epsilon: 0.3, Seed: 7}
		calls := []struct {
			name string
			run  func() error
		}{
			{"Decompose", func() error { _, err := khcore.Decompose(g, opts); return err }},
			{"DecomposeCtx", func() error { _, err := khcore.DecomposeCtx(bg, g, opts); return err }},
			{"DecomposeApprox", func() error { _, err := khcore.Decompose(g, approx); return err }},
			{"DecomposeSpectrum", func() error { _, err := khcore.DecomposeSpectrum(g, 2, opts); return err }},
			{"DecomposeSpectrumCtx", func() error { _, err := khcore.DecomposeSpectrumCtx(bg, g, 2, opts); return err }},
			{"UpperBounds", func() error { khcore.UpperBounds(g, 2, workers); return nil }},
			{"UpperBoundsCtx", func() error { _, err := khcore.UpperBoundsCtx(bg, g, 2, workers); return err }},
			{"PowerPeelingOrder", func() error { khcore.PowerPeelingOrder(g, 2, workers); return nil }},
			{"PowerPeelingOrderCtx", func() error { _, _, err := khcore.PowerPeelingOrderCtx(bg, g, 2, workers); return err }},
			{"LowerBounds", func() error { khcore.LowerBounds(g, 4, workers); return nil }},
			{"HDegrees", func() error { khcore.HDegrees(g, 2, workers); return nil }},
			{"SelectLandmarks", func() error {
				_, err := khcore.SelectLandmarks(g, khcore.LandmarksHDegree, 5, 2, nil, 1, workers)
				return err
			}},
			{"GreedyColoring", func() error { _, err := khcore.GreedyColoring(g, 2, nil); return err }},
			{"DensestSubgraph", func() error { _, err := khcore.DensestSubgraph(g, 2, nil); return err }},
			{"CommunitySearch", func() error { _, err := khcore.CommunitySearch(g, 2, []int{0}, nil); return err }},
			{"NewMaintainerCtxCanceled", func() error {
				if _, err := khcore.NewMaintainerCtx(canceled, g, 2, opts); err == nil {
					return fmt.Errorf("a canceled construction succeeded")
				}
				return nil
			}},
		}
		for _, c := range calls {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				leakcheck.Check(t)
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
