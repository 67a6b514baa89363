package expt

import (
	"fmt"
	"time"

	"repro/internal/apps/hclub"
	"repro/internal/apps/landmarks"
	"repro/internal/core"
)

// Table6Row is one (dataset, h) row of Table 6: maximum h-club runtime for
// the direct exact solvers vs the Algorithm 7 wrapper.
type Table6Row struct {
	Dataset  string
	H        int
	ClubSize int
	// Direct and DirectIter time the whole-graph solvers (DBC / ITDBC
	// stand-ins); Wrapped and WrappedIter time the same solvers inside
	// Algorithm 7 (including decomposition time, as the paper does).
	Direct, DirectIter, Wrapped, WrappedIter time.Duration
	// Exact is false when any solver hit its node budget (the analog of
	// the paper's NT/OM entries).
	Exact bool
	// Nodes compares search effort: branch-and-bound nodes explored.
	DirectNodes, WrappedNodes int64
}

var table6Datasets = []string{"FBco", "caHe", "amzn", "rnTX", "rnPA"}

// Table6 reproduces the maximum h-club comparison (§6.5): Algorithm 7
// wrapped around a black-box exact solver vs running the solver directly.
func Table6(cfg Config) ([]Table6Row, error) {
	cfg = cfg.withDefaults()
	budget := cfg.HClubMaxNodes
	if budget == 0 {
		budget = 200000
	}
	solverOpts := hclub.Options{MaxNodes: budget, MaxDuration: cfg.HClubTimeout}
	var rows []Table6Row
	for _, name := range cfg.pick(table6Datasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		for h := 2; h <= cfg.maxH(4); h++ {
			row := Table6Row{Dataset: name, H: h, Exact: true}

			start := time.Now()
			direct, err := hclub.ExactCtx(cfg.context(), g, h, solverOpts)
			if err != nil {
				return nil, err
			}
			row.Direct = time.Since(start)
			row.DirectNodes = direct.Nodes
			row.Exact = row.Exact && direct.Exact

			start = time.Now()
			directIter, err := hclub.ExactIterativeCtx(cfg.context(), g, h, solverOpts)
			if err != nil {
				return nil, err
			}
			row.DirectIter = time.Since(start)
			row.Exact = row.Exact && directIter.Exact

			// Algorithm 7 timings include the decomposition, as the paper's
			// Table 6 does; the decomposition is shared by both wrappers.
			start = time.Now()
			dec, err := cfg.decompose(g, h, core.HLBUB)
			if err != nil {
				return nil, err
			}
			decDur := time.Since(start)

			start = time.Now()
			wrapped, err := hclub.WithCoresCtx(cfg.context(), g, h, dec, hclub.Exact, solverOpts)
			if err != nil {
				return nil, err
			}
			row.Wrapped = decDur + time.Since(start)
			row.WrappedNodes = wrapped.Nodes
			row.Exact = row.Exact && wrapped.Exact

			start = time.Now()
			wrappedIter, err := hclub.WithCoresCtx(cfg.context(), g, h, dec, hclub.ExactIterative, solverOpts)
			if err != nil {
				return nil, err
			}
			row.WrappedIter = decDur + time.Since(start)
			row.Exact = row.Exact && wrappedIter.Exact

			row.ClubSize = len(wrapped.Club)
			if len(direct.Club) > row.ClubSize {
				row.ClubSize = len(direct.Club)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderTable6 renders Table 6.
func RenderTable6(rows []Table6Row) *Table {
	t := &Table{
		ID:     "table6",
		Title:  "maximum h-club: direct exact solvers vs Algorithm 7 wrapper",
		Header: []string{"dataset", "h", "max club", "direct", "direct-iter", "alg7+direct", "alg7+iter", "bnb nodes direct/wrapped", "exact"},
		Notes: []string{
			"DBC/ITDBC (Gurobi IP) replaced by combinatorial exact solvers — see the internal/apps/hclub package notes",
			"paper shape: the wrapper solves on a much smaller subgraph and wins consistently; budget-capped runs mirror the paper's NT/OM entries",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprint(r.H), fmt.Sprint(r.ClubSize),
			fdur(r.Direct), fdur(r.DirectIter), fdur(r.Wrapped), fdur(r.WrappedIter),
			fmt.Sprintf("%d/%d", r.DirectNodes, r.WrappedNodes),
			fmt.Sprint(r.Exact),
		})
	}
	return t
}

// Table7Row is one (dataset, strategy) cell of Table 7: mean relative
// error of the landmark distance oracle.
type Table7Row struct {
	Dataset  string
	Strategy string // "core h=1".."core h=4", "cc", "bc", "deg1".."deg4"
	Error    float64
	// TopCoreK and TopCoreSize report the paper's bottom table (maximum
	// core index / vertices in it) for the core strategies.
	TopCoreK, TopCoreSize int
}

var table7Datasets = []string{"FBco", "caHe", "caAs", "doub"}

// Table7 reproduces the landmark-selection experiment (§6.6): landmarks
// from the maximum (k,h)-core for h=1..4, against closeness, betweenness
// and top-h-degree baselines; mean relative error over cfg.Pairs queries,
// averaged over cfg.Reps repetitions.
func Table7(cfg Config) ([]Table7Row, error) {
	cfg = cfg.withDefaults()
	maxH := cfg.maxH(4)
	var rows []Table7Row
	for _, name := range cfg.pick(table7Datasets) {
		g, err := cfg.load(name)
		if err != nil {
			return nil, err
		}
		evalOracle := func(lms []int, rep int) (float64, error) {
			o, err := landmarks.NewOracle(g, lms)
			if err != nil {
				return 0, err
			}
			ev := landmarks.Evaluate(g, o, cfg.Pairs, cfg.Seed+uint64(rep)*101)
			if ev.BoundViolations > 0 {
				return 0, fmt.Errorf("%w on %s", ErrOracleBound, name)
			}
			return ev.MeanRelError, nil
		}
		// Core-based strategies, h = 1..maxH (stochastic: average reps).
		for h := 1; h <= maxH; h++ {
			dec, err := cfg.decompose(g, h, core.HLBUB)
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for rep := 0; rep < cfg.Reps; rep++ {
				lms, err := landmarks.Select(g, landmarks.MaxCore, cfg.Ell, h, dec, cfg.Seed+uint64(rep)*13, cfg.Workers)
				if err != nil {
					return nil, err
				}
				e, err := evalOracle(lms, rep)
				if err != nil {
					return nil, err
				}
				sum += e
			}
			rows = append(rows, Table7Row{
				Dataset: name, Strategy: fmt.Sprintf("core h=%d", h),
				Error:    sum / float64(cfg.Reps),
				TopCoreK: dec.MaxCoreIndex(), TopCoreSize: len(dec.CoreVertices(dec.MaxCoreIndex())),
			})
		}
		// Deterministic baselines (single evaluation, averaged over query
		// samples only).
		baselines := []struct {
			label    string
			strategy landmarks.Strategy
			h        int
		}{
			{"cc", landmarks.Closeness, 0},
			{"bc", landmarks.Betweenness, 0},
		}
		for h := 1; h <= maxH; h++ {
			baselines = append(baselines, struct {
				label    string
				strategy landmarks.Strategy
				h        int
			}{fmt.Sprintf("deg h=%d", h), landmarks.HDegree, h})
		}
		for _, bl := range baselines {
			lms, err := landmarks.Select(g, bl.strategy, cfg.Ell, bl.h, nil, cfg.Seed, cfg.Workers)
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for rep := 0; rep < cfg.Reps; rep++ {
				e, err := evalOracle(lms, rep)
				if err != nil {
					return nil, err
				}
				sum += e
			}
			rows = append(rows, Table7Row{Dataset: name, Strategy: bl.label, Error: sum / float64(cfg.Reps)})
		}
	}
	return rows, nil
}

// RenderTable7 renders Table 7.
func RenderTable7(rows []Table7Row) *Table {
	t := &Table{
		ID:     "table7",
		Title:  "landmark selection: mean relative distance-estimation error",
		Header: []string{"dataset", "strategy", "mean rel error", "max core k/|C_k|"},
		Notes:  []string{"paper shape: max-(k,h)-core landmarks with larger h beat h=1 and the cc/bc/h-degree baselines"},
	}
	for _, r := range rows {
		coreCell := ""
		if r.TopCoreSize > 0 {
			coreCell = fmt.Sprintf("%d/%d", r.TopCoreK, r.TopCoreSize)
		}
		t.Rows = append(t.Rows, []string{r.Dataset, r.Strategy, fmt.Sprintf("%.3f", r.Error), coreCell})
	}
	return t
}
