package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	khcore "repro"
	"repro/internal/leakcheck"
)

// testServer builds a server over a deterministic synthetic graph with a
// small engine fleet, the shape the daemon runs with in production. Every
// test through it also runs under the goroutine leak checker — the
// engine fleet's parked h-BFS helpers must all retire with the pool.
func testServer(t *testing.T, engines int) (*server, *khcore.Graph) {
	t.Helper()
	g := khcore.BarabasiAlbert(300, 3, 42)
	return testServerOn(t, g, engines), g
}

// testServerOn is testServer over a caller-chosen graph.
func testServerOn(t *testing.T, g *khcore.Graph, engines int) *server {
	t.Helper()
	leakcheck.Check(t)
	s, err := newServer(g, nil, serverConfig{
		Engines:    engines,
		Workers:    1,
		Timeout:    5 * time.Second,
		MaxTimeout: time.Minute,
		MaxH:       8,
		// Functional tests drive more concurrency than the engine fleet;
		// shedding is exercised by the dedicated admission tests.
		MaxInflight: 64,
	})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.close)
	return s
}

// get performs one request against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, url string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	s, g := testServer(t, 2)
	var body healthzResponse
	resp := get(t, s.handler(), "/healthz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body.Status != "ok" || body.Vertices != g.NumVertices() || body.Engines != 2 {
		t.Fatalf("unexpected body: %+v", body)
	}
}

func TestDecomposeMatchesLibrary(t *testing.T) {
	s, g := testServer(t, 2)
	var body decomposeResponse
	resp := get(t, s.handler(), "/decompose?h=2&vertices=1", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want, err := khcore.Decompose(g, khcore.Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	if body.H != 2 || body.MaxCoreIndex != want.MaxCoreIndex() || body.DistinctCores != want.DistinctCores() {
		t.Fatalf("summary mismatch: %+v vs max=%d distinct=%d", body, want.MaxCoreIndex(), want.DistinctCores())
	}
	if len(body.Core) != g.NumVertices() {
		t.Fatalf("vertices=1 returned %d cores for %d vertices", len(body.Core), g.NumVertices())
	}
	for v, c := range want.Core {
		if body.Core[v] != c {
			t.Fatalf("core[%d] = %d, want %d", v, body.Core[v], c)
		}
	}
}

func TestCoreMembership(t *testing.T) {
	s, g := testServer(t, 1)
	var body coreResponse
	resp := get(t, s.handler(), "/core?h=2&k=3", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want, err := khcore.Decompose(g, khcore.Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantMembers := want.CoreVertices(3)
	if body.Size != len(wantMembers) || len(body.Members) != len(wantMembers) {
		t.Fatalf("got %d members, want %d", body.Size, len(wantMembers))
	}
	for i, v := range wantMembers {
		if body.Members[i] != v {
			t.Fatalf("members[%d] = %d, want %d", i, body.Members[i], v)
		}
	}
}

func TestSpectrumAndHierarchy(t *testing.T) {
	s, _ := testServer(t, 1)
	var sp spectrumResponse
	if resp := get(t, s.handler(), "/spectrum?maxh=3", &sp); resp.StatusCode != http.StatusOK {
		t.Fatalf("spectrum status %d", resp.StatusCode)
	}
	if sp.MaxH != 3 || len(sp.Levels) != 3 {
		t.Fatalf("unexpected spectrum: %+v", sp)
	}
	// Core indices are monotone in h (the containment property).
	for h := 1; h < 3; h++ {
		if sp.Levels[h].MaxCoreIndex < sp.Levels[h-1].MaxCoreIndex {
			t.Fatalf("max core decreased from h=%d to h=%d", h, h+1)
		}
	}
	var hier hierarchyResponse
	if resp := get(t, s.handler(), "/hierarchy?h=2", &hier); resp.StatusCode != http.StatusOK {
		t.Fatalf("hierarchy status %d", resp.StatusCode)
	}
	if len(hier.Nodes) == 0 || len(hier.Roots) == 0 {
		t.Fatalf("empty hierarchy: %+v", hier)
	}
	for i, n := range hier.Nodes {
		if n.Parent >= i {
			t.Fatalf("node %d has parent %d (parents must precede children)", i, n.Parent)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	s, _ := testServer(t, 1)
	h := s.handler()
	cases := []struct {
		url    string
		status int
		code   string
	}{
		{"/decompose?h=0", http.StatusBadRequest, "invalid_h"},
		{"/decompose?h=99", http.StatusBadRequest, "invalid_h"},
		{"/decompose?h=2x3", http.StatusBadRequest, "invalid_h"},
		{"/core?k=3.9", http.StatusBadRequest, "bad_k"},
		{"/decompose?algo=nope", http.StatusBadRequest, "unknown_algorithm"},
		{"/decompose?algo=bz", http.StatusBadRequest, "baseline_gated"},
		{"/decompose?timeout=banana", http.StatusBadRequest, "bad_timeout"},
		{"/spectrum?maxh=0", http.StatusBadRequest, "invalid_h"},
		{"/core?k=-1", http.StatusBadRequest, "bad_k"},
	}
	for _, c := range cases {
		var body errorBody
		resp := get(t, h, c.url, &body)
		if resp.StatusCode != c.status || body.Code != c.code {
			t.Errorf("%s: got status %d code %q, want %d %q (error: %s)",
				c.url, resp.StatusCode, body.Code, c.status, c.code, body.Error)
		}
	}
}

func TestDeadlineExpiryReports504(t *testing.T) {
	s, _ := testServer(t, 1)
	// A nanosecond deadline expires before the engine's first cancellation
	// poll, so the run aborts as canceled-with-DeadlineExceeded.
	var body errorBody
	resp := get(t, s.handler(), "/decompose?h=2&timeout=1ns&cache=never", &body)
	if resp.StatusCode != http.StatusGatewayTimeout || body.Code != "deadline_exceeded" {
		t.Fatalf("got status %d code %q, want 504 deadline_exceeded", resp.StatusCode, body.Code)
	}
	// The engine that absorbed the canceled run must serve the next
	// request normally.
	var ok decomposeResponse
	if resp := get(t, s.handler(), "/decompose?h=2", &ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout decompose: status %d", resp.StatusCode)
	}
}

// TestConcurrentLoad multiplexes many goroutines over a 2-engine fleet;
// under -race this also audits the EnginePool checkout discipline and the
// engines' mutual isolation.
func TestConcurrentLoad(t *testing.T) {
	s, g := testServer(t, 2)
	want, err := khcore.Decompose(g, khcore.Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				req := httptest.NewRequest("GET", "/decompose?h=2", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var body decomposeResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					errs <- err
					return
				}
				if body.MaxCoreIndex != want.MaxCoreIndex() {
					errs <- fmt.Errorf("maxCore %d, want %d", body.MaxCoreIndex, want.MaxCoreIndex())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecomposeApproxMode exercises the fast tier end to end: a
// mode=approx request must succeed, report the quality block with the
// resolved configuration, return per-vertex cores whose worst error
// against the library's exact result stays inside the reported bound, and
// be bit-reproducible for a fixed seed.
func TestDecomposeApproxMode(t *testing.T) {
	s, g := testServer(t, 2)
	h := s.handler()
	exact, err := khcore.Decompose(g, khcore.Options{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	var body decomposeResponse
	resp := get(t, h, "/decompose?h=3&mode=approx&epsilon=0.3&seed=7&vertices=1", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body.Approx == nil {
		t.Fatal("approx block missing from mode=approx response")
	}
	if body.Approx.Epsilon != 0.3 || body.Approx.Seed != 7 || body.Approx.SampleBudget != khcore.SampleBudgetFor(0.3, 0.9) {
		t.Fatalf("approx block did not echo the resolved config: %+v", body.Approx)
	}
	if body.Approx.SamplesDrawn <= 0 || body.Approx.ErrorBound < 1 {
		t.Fatalf("approx quality counters not populated: %+v", body.Approx)
	}
	worst := 0
	for v := range exact.Core {
		d := body.Core[v] - exact.Core[v]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > body.Approx.ErrorBound {
		t.Fatalf("observed error %d exceeds reported bound %d", worst, body.Approx.ErrorBound)
	}
	var again decomposeResponse
	get(t, h, "/decompose?h=3&mode=approx&epsilon=0.3&seed=7&vertices=1", &again)
	for v := range body.Core {
		if body.Core[v] != again.Core[v] {
			t.Fatalf("same-seed approx responses differ at vertex %d", v)
		}
	}
	// Exact responses must not carry the block.
	var ex decomposeResponse
	get(t, h, "/decompose?h=2", &ex)
	if ex.Approx != nil {
		t.Fatal("exact response carries an approx block")
	}
	// The fast tier serves /core too.
	var cb coreResponse
	if resp := get(t, h, "/core?h=3&k=2&mode=approx&seed=7", &cb); resp.StatusCode != http.StatusOK {
		t.Fatalf("/core mode=approx status %d", resp.StatusCode)
	}
	if cb.Size == 0 {
		t.Fatal("approx /core returned an empty (2,3)-core on a BA graph")
	}
}

// TestApproxRequestValidation pins the invalid_approx error mapping.
func TestApproxRequestValidation(t *testing.T) {
	s, _ := testServer(t, 1)
	h := s.handler()
	for _, url := range []string{
		"/decompose?mode=nope",
		"/decompose?mode=approx&epsilon=2",
		"/decompose?mode=approx&epsilon=x",
		"/decompose?mode=approx&seed=-1",
		"/decompose?mode=approx&budget=-2",
		"/decompose?epsilon=0.3", // knob without mode=approx
		"/decompose?mode=approx&algo=lb",
		"/core?mode=approx&epsilon=1.5",
	} {
		var body errorBody
		resp := get(t, h, url, &body)
		if resp.StatusCode != http.StatusBadRequest || body.Code != "invalid_approx" {
			t.Errorf("%s: got status %d code %q, want 400 invalid_approx (error: %s)",
				url, resp.StatusCode, body.Code, body.Error)
		}
	}
}
