// Command khbench is the repository's end-to-end and per-layer benchmark.
// One run binds the library the way its users do and measures, in
// interleaved cycles:
//
//   - static decomposition: a fixed list of exact (HLBUB) and approximate
//     jobs on warm Engines;
//   - an edit stream: a Maintainer replaying a seeded edit sequence S and
//     its inverse, so every round passes through the same graph states;
//   - mixed serving: the khserve binary over loopback HTTP, reads beside
//     mutations on a fixed open-loop schedule.
//
// The workload picks the h-BFS worker count of every engine the run binds
// (workers-1 or workers-2). Usage, from the repository root:
//
//	bash khbench/run.sh --workload workers-1 --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is the result object; khbench/README.md
// documents every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workloads maps a workload name to the h-BFS worker count of every engine
// the run binds.
var workloads = map[string]int{
	"workers-1": 1,
	"workers-2": 2,
}

// config is one run's command line.
type config struct {
	workload string
	workers  int
	seed     uint64
	seconds  int
	trace    bool
	khserve  string // path to the built khserve binary
	outDir   string // run records, traces and the daemon's edge list
	commit   string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "khbench:", err)
		os.Exit(2)
	}
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "khbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(cfg, rec); err != nil {
		fmt.Fprintln(os.Stderr, "khbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "khbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("khbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workers-1 or workers-2")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 50, "measured time of the run, in whole serve rounds (at least two, at most four)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.khserve, "khserve", "", "path to the khserve binary")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for run records and traces")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit of the measured tree")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return cfg, fmt.Errorf("unknown workload %q (want workers-1 or workers-2)", cfg.workload)
	}
	cfg.workers = w
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds %d: need at least 1", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	if cfg.khserve == "" {
		return cfg, fmt.Errorf("--khserve is required")
	}
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full run record written beside the traces: the host block,
// every metric of the run (end-to-end and per-layer), the check failures
// and, for a traced run, the per-span self-time table.
type record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Traced      bool               `json:"traced"`
	Host        hostBlock          `json:"host"`
	EndToEnd    map[string]metric  `json:"endToEnd"`
	PerLayer    map[string]metric  `json:"perLayer,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Spans       []spanSummary      `json:"spans,omitempty"`
	// Positions holds the serving section's per-position best latencies
	// (ms, in schedule order), from which its percentiles are taken.
	Positions map[string][]float64 `json:"positions"`
	Failures  []string             `json:"failures,omitempty"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
}

func writeRecord(cfg config, rec *record) error {
	dir := filepath.Join(cfg.outDir, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// run executes one benchmark run: host probe, cold starts, references,
// the measured cycles, host probe again, then the checks' verdict.
func run(cfg config) (*result, *record, error) {
	ck := &checker{}
	rec := &record{
		Workload:    cfg.workload,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
		Traced:      cfg.trace,
		Host:        newHostBlock(cfg.commit),
		Diagnostics: map[string]float64{},
	}
	tr := newTracer(cfg.trace)
	rec.Host.ProbeBefore = probeHost()

	st, err := newStaticBench(cfg, ck, tr)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	ed, err := newEditBench(cfg, ck, tr)
	if err != nil {
		return nil, nil, err
	}
	defer ed.close()
	sv, err := newServeBench(cfg, ck, tr, ed.graph0, ed.script)
	if err != nil {
		return nil, nil, err
	}
	defer sv.close()
	setup := st.setupBest + ed.setupBest + sv.setupBest
	rec.Diagnostics["setup_static_s"] = st.setupBest.Seconds()
	rec.Diagnostics["setup_edit_s"] = ed.setupBest.Seconds()
	rec.Diagnostics["setup_serve_s"] = sv.setupBest.Seconds()

	// References stay outside both the timed cycles and setup_s.
	if err := st.references(); err != nil {
		return nil, nil, err
	}
	if err := ed.references(); err != nil {
		return nil, nil, err
	}
	// peak_rss_mb covers the measured cycles only: the references' extra
	// engines and the setup tries go back to the OS before the peak is
	// reset.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}

	// The cycles interleave the three sections, so a slow phase of the
	// host lands on a few repetitions of each rather than on all
	// repetitions of one; every timing below is a best-of over cycles.
	budget := time.Duration(cfg.seconds) * time.Second
	begin := time.Now()
	cycles, rounds := 0, 0
	for {
		roundStart := time.Now()
		for c := 0; c < serveChunks; c++ {
			traced := cfg.trace && cycles%2 == 0
			if err := st.pass(traced); err != nil {
				return nil, nil, err
			}
			// Each section starts without a collection in flight: the
			// edit rounds and the HTTP client allocate, the static
			// passes do not.
			runtime.GC()
			if err := ed.round(traced); err != nil {
				return nil, nil, err
			}
			runtime.GC()
			if err := sv.chunk(c); err != nil {
				return nil, nil, err
			}
			runtime.GC()
			cycles++
		}
		rounds++
		// Another round only if one as long as the last ends in budget.
		next := time.Since(begin) + time.Since(roundStart)
		if rounds >= maxRounds || (rounds >= minRounds && next > budget) {
			break
		}
	}
	rec.Diagnostics["measured_s"] = time.Since(begin).Seconds()
	rec.Diagnostics["cycles"] = float64(cycles)
	libRSS, serveRSS := vmHWM(os.Getpid()), vmHWM(sv.pid())

	if err := sv.finalChecks(ed.core0); err != nil {
		return nil, nil, err
	}
	var probes layerProbes
	if cfg.trace {
		if probes, err = probeLayers(cfg, st, ed, tr); err != nil {
			return nil, nil, err
		}
	}
	rec.Host.ProbeAfter = probeHost()

	e2e := endToEnd(setup, libRSS, serveRSS, st, ed)
	rec.EndToEnd = e2e
	rec.Positions = sv.positions()
	for k, v := range st.diagnostics() {
		rec.Diagnostics[k] = v
	}
	for k, v := range ed.diagnostics() {
		rec.Diagnostics[k] = v
	}
	for k, v := range sv.diagnostics() {
		rec.Diagnostics[k] = v
	}
	out := e2e
	if cfg.trace {
		rec.PerLayer = perLayer(probes, st, ed, sv)
		rec.Spans = tr.summary()
		out = rec.PerLayer
		if err := tr.write(filepath.Join(cfg.outDir, "traces",
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
			return nil, nil, err
		}
	}
	rec.Attempted, rec.Failed, rec.Failures = ck.attempted, ck.failed, ck.failures
	res := &result{
		Correct:   ck.failed == 0,
		Attempted: max(ck.attempted, 1),
		Failed:    ck.failed,
		Metrics:   out,
	}
	return res, rec, nil
}

// endToEnd assembles the end-to-end metrics of a run.
func endToEnd(setup time.Duration, libRSS, serveRSS float64, st *staticBench, ed *editBench) map[string]metric {
	return map[string]metric{
		"setup_s":      {setup.Seconds(), "s"},
		"peak_rss_mb":  {libRSS, "MB"},
		"serve_rss_mb": {serveRSS, "MB"},
		"exact_ms":     {ms(sumBest(st.best, false)), "ms"},
		"approx_ms":    {ms(sumBest(st.best, true)), "ms"},
		"approx_err":   {st.approxErr, "ratio"},
		"edit_ms":      {meanPerEdit(ed.best, ed.script), "ms"},
	}
}

// A run measures whole serve rounds, each of serveChunks cycles, as many
// as fit in --seconds: at least minRounds, so every best-of has
// repetitions to choose from even at --seconds 1, and at most maxRounds,
// so a long --seconds stays well inside the per-run time limit.
const (
	minRounds = 2
	maxRounds = 4
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checker counts checked operations and failed checks.
type checker struct {
	attempted, failed int64
	failures          []string
}

// ok records one checked operation; a false cond is a failure. The
// record keeps the first 20 failure messages.
func (c *checker) ok(cond bool, format string, args ...any) {
	c.attempted++
	if cond {
		return
	}
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}
