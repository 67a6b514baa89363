package expt

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// ApproxRow is one (dataset, epsilon) cell of the sampling experiment: the
// accuracy/latency frontier of the approximate decomposition against the
// exact h-LB+UB result on the same graph.
type ApproxRow struct {
	Dataset    string
	H          int
	Epsilon    float64
	Budget     int
	ExactTime  time.Duration
	ApproxTime time.Duration
	Speedup    float64
	MaxErr     int
	MeanErr    float64
	Bound      int
	Truncated  int64
}

// approxDatasets is the default sweep selection: the mid-size analogs
// whose exact h=3 runs are slow enough for sampling to matter but fast
// enough to rerun per epsilon.
var approxDatasets = []string{"jazz", "cele", "FBco"}

// approxEpsilons is the experiment's epsilon sweep.
var approxEpsilons = []float64{0.1, 0.2, 0.3, 0.5}

// Approx sweeps the sampling budget across epsilon settings and measures
// the speedup over exact h-LB+UB together with the realized core-index
// error — the repository's analog of the accuracy/latency tables in the
// sampling follow-up literature (PAPERS.md).
func Approx(cfg Config) ([]ApproxRow, error) {
	cfg = cfg.withDefaults()
	h := cfg.maxH(3)
	var rows []ApproxRow
	for _, name := range cfg.pick(approxDatasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		exact, err := cfg.decompose(g, h, core.HLBUB)
		if err != nil {
			return nil, err
		}
		exactTime := time.Since(t0)
		for _, eps := range approxEpsilons {
			t0 = time.Now()
			res, err := core.DecomposeCtx(cfg.context(), g, core.Options{
				H: h, Workers: cfg.Workers,
				Approx: core.ApproxOptions{Enabled: true, Epsilon: eps, Seed: cfg.Seed},
			})
			if err != nil {
				return nil, err
			}
			approxTime := time.Since(t0)
			maxErr, sumErr := 0, 0
			for v := range exact.Core {
				d := res.Core[v] - exact.Core[v]
				if d < 0 {
					d = -d
				}
				if d > maxErr {
					maxErr = d
				}
				sumErr += d
			}
			n := len(exact.Core)
			meanErr := 0.0
			if n > 0 {
				meanErr = float64(sumErr) / float64(n)
			}
			rows = append(rows, ApproxRow{
				Dataset:    name,
				H:          h,
				Epsilon:    eps,
				Budget:     res.Stats.Approx.SampleBudget,
				ExactTime:  exactTime,
				ApproxTime: approxTime,
				Speedup:    exactTime.Seconds() / approxTime.Seconds(),
				MaxErr:     maxErr,
				MeanErr:    meanErr,
				Bound:      res.Stats.Approx.ErrorBound,
				Truncated:  res.Stats.Approx.TruncatedBalls,
			})
		}
	}
	return rows, nil
}

// RenderApprox renders the sampling sweep.
func RenderApprox(rows []ApproxRow) *Table {
	t := &Table{
		ID:     "approx",
		Title:  "sampling-based approximate decomposition: speedup vs core-index error",
		Header: []string{"dataset", "h", "eps", "budget", "exact", "approx", "speedup", "max err", "mean err", "bound", "truncated"},
		Notes:  []string{"bound is the run's advertised per-vertex error bound at the configured confidence (Stats.Approx.ErrorBound); the max over all vertices can exceed a per-vertex 90% bound at the loosest epsilon settings"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprint(r.H), fmt.Sprintf("%.2f", r.Epsilon), fmt.Sprint(r.Budget),
			fdur(r.ExactTime), fdur(r.ApproxTime), fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprint(r.MaxErr), fmt.Sprintf("%.2f", r.MeanErr), fmt.Sprint(r.Bound),
			fmt.Sprint(r.Truncated),
		})
	}
	return t
}
