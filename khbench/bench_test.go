package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

func testConfig(t *testing.T, workers int) config {
	t.Helper()
	return config{workload: "test", workers: workers, seed: 3, seconds: 1, outDir: t.TempDir()}
}

// TestStaticCountersRepeat runs short static sections: every answer must
// match its reference and, at one worker, every job's work counters must
// repeat exactly from pass to pass (the pass checks both).
func TestStaticCountersRepeat(t *testing.T) {
	leakcheck.Check(t)
	for _, w := range []int{1, 2} {
		ck := &checker{}
		st, err := newStaticBench(testConfig(t, w), ck, newTracer(false))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.references(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := st.pass(false); err != nil {
				t.Fatal(err)
			}
		}
		st.close()
		if ck.failed != 0 {
			t.Fatalf("workers=%d: %d failed checks: %v", w, ck.failed, ck.failures)
		}
		if st.approxErr <= 0 {
			t.Errorf("workers=%d: approx_err %v, want > 0", w, st.approxErr)
		}
	}
}

// TestApproxDigestsAcrossWorkers checks that every approximate job returns
// the same cores at 1 and 2 workers.
func TestApproxDigestsAcrossWorkers(t *testing.T) {
	leakcheck.Check(t)
	gs, err := staticGraphs(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range staticJobs {
		if !j.approx {
			continue
		}
		var digests []string
		for _, w := range []int{1, 2} {
			e := core.NewEngine(gs[j.graph], w)
			var r core.Result
			err := e.DecomposeInto(&r, jobOptions(j))
			e.Close()
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, digest(r.Core))
		}
		if digests[0] != digests[1] {
			t.Errorf("%v: digest %s at 1 worker, %s at 2", j, digests[0], digests[1])
		}
	}
}

// TestEditRoundsRepeat replays the edit script twice at one worker: the
// rounds check the cores after S and after its inverse, and that the
// round's visits repeat exactly.
func TestEditRoundsRepeat(t *testing.T) {
	leakcheck.Check(t)
	ck := &checker{}
	ed, err := newEditBench(testConfig(t, 1), ck, newTracer(true))
	if err != nil {
		t.Fatal(err)
	}
	defer ed.close()
	if err := ed.references(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ed.round(i == 0); err != nil {
			t.Fatal(err)
		}
	}
	if ck.failed != 0 {
		t.Fatalf("%d failed checks: %v", ck.failed, ck.failures)
	}
	if got := ed.traced[0].localized; got != float64(len(ed.script)) {
		t.Errorf("%v of %d script positions localized, want all", got, len(ed.script))
	}
}

// TestServeRound builds khserve, serves one full round of the schedule and
// checks every response plus the final state.
func TestServeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("builds khserve and serves for several seconds")
	}
	leakcheck.Check(t)
	cfg := testConfig(t, 1)
	cfg.khserve = filepath.Join(t.TempDir(), "khserve")
	build := exec.Command("go", "build", "-o", cfg.khserve, "repro/cmd/khserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building khserve: %v\n%s", err, out)
	}
	ck := &checker{}
	ed, err := newEditBench(cfg, ck, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	defer ed.close()
	if err := ed.references(); err != nil {
		t.Fatal(err)
	}
	sv, err := newServeBench(cfg, ck, newTracer(false), ed.graph0, ed.script)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.close()
	for c := 0; c < serveChunks; c++ {
		if err := sv.chunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.finalChecks(ed.core0); err != nil {
		t.Fatal(err)
	}
	if ck.failed != 0 {
		t.Fatalf("%d failed checks: %v", ck.failed, ck.failures)
	}
	if p99, p90 := quantile(sv.readBest, 0.99), quantile(sv.writeBest, 0.9); p99 <= 0 || p90 <= 0 {
		t.Errorf("read p99 %v, mutate p90 %v: want positive", p99, p90)
	}
}

// TestExactDigests validates every stored exact digest with the naive
// oracle.
func TestExactDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("core.Validate takes minutes on the larger graphs")
	}
	gs, err := staticGraphs(3)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range exactDigests {
		g := gs[key.graph]
		e := core.NewEngine(g, 1)
		var r core.Result
		err := e.DecomposeInto(&r, core.Options{H: key.h})
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Validate(g, key.h, r.Core); err != nil {
			t.Errorf("%v: %v", key, err)
		}
		if got := digest(r.Core); got != want {
			t.Errorf("%v: digest %s, stored %s", key, got, want)
		}
	}
}

// TestSpecMatchesCode checks BENCHMARK.json against the code: the same
// workloads, and exactly the end-to-end and per-layer metrics each mode
// prints.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for w := range workloads {
		code = append(code, w)
	}
	sameSet(t, "workloads", names, code)
	n := len(staticJobs)
	st := &staticBench{best: make([]time.Duration, n), bestTr: make([]time.Duration, n)}
	ed, sv := &editBench{}, &serveBench{}
	compare := func(what string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		var a, b []string
		for _, m := range listed {
			a = append(a, m.Name+" "+m.Unit)
		}
		for n, m := range printed {
			b = append(b, n+" "+m.Unit)
		}
		sameSet(t, what, a, b)
	}
	compare("end_to_end", spec.EndToEnd, endToEnd(0, 0, 0, st, ed))
	compare("per_layer", spec.PerLayer, perLayer(layerProbes{}, st, ed, sv))
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("%s differ:\n BENCHMARK.json %v\n code           %v", what, a, b)
	}
}

// TestNoOneShotWrappers keeps the benchmark off the one-shot library
// wrappers, which size pools by NumCPU and leave helper goroutines
// behind; the benchmark binds engines and pools it closes itself.
func TestNoOneShotWrappers(t *testing.T) {
	banned := regexp.MustCompile(`core\.(Decompose|DecomposeCtx|HDegrees|LowerBounds|UpperBounds\w*)\(`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if loc := banned.FindIndex(b); loc != nil {
			t.Errorf("%s calls a one-shot wrapper: %s", f, b[loc[0]:loc[1]])
		}
	}
}

// TestQuantileLeavesTenBeyond checks the nearest-rank quantile: with 1000
// samples, p99 leaves ten larger samples, and with 120, p90 leaves 12.
func TestQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{1000, 0.99, 10}, {120, 0.9, 12}, {1000, 0.5, 500}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, c.q)
		if got := c.n - 1 - int(v); got != c.beyond {
			t.Errorf("n=%d q=%v: %d samples beyond, want %d", c.n, c.q, got, c.beyond)
		}
	}
}
