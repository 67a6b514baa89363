package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	khcore "repro"
	"repro/internal/leakcheck"
)

// TestErrorCodeMapping pins the typed-error → (status, code) table the
// JSON error envelope exposes to clients, including wrapped forms — the
// handlers always wrap sentinels with request context.
func TestErrorCodeMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{khcore.ErrInvalidH, http.StatusBadRequest, "invalid_h"},
		{khcore.ErrUnknownAlgorithm, http.StatusBadRequest, "unknown_algorithm"},
		{khcore.ErrBaselineGated, http.StatusBadRequest, "baseline_gated"},
		{khcore.ErrInvalidApprox, http.StatusBadRequest, "invalid_approx"},
		{khcore.ErrNilGraph, http.StatusServiceUnavailable, "nil_graph"},
		{khcore.ErrPoolClosed, http.StatusServiceUnavailable, "pool_closed"},
		{khcore.ErrEnginePanic, http.StatusInternalServerError, "engine_panic"},
		{&khcore.EnginePanicError{Op: "DecomposeInto", Value: "boom"}, http.StatusInternalServerError, "engine_panic"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
		{khcore.ErrCanceled, 499, "canceled"},
		{errBadRequest, http.StatusBadRequest, "bad_request"},
		{errors.New("mystery"), http.StatusInternalServerError, "internal"},
		{fmt.Errorf("wrapped: %w", khcore.ErrInvalidH), http.StatusBadRequest, "invalid_h"},
		{fmt.Errorf("%w: %w", khcore.ErrCanceled, context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline_exceeded"},
	}
	for _, c := range cases {
		status, code := errorCode(c.err)
		if status != c.status || code != c.code {
			t.Errorf("errorCode(%v) = (%d, %q), want (%d, %q)", c.err, status, code, c.status, c.code)
		}
	}
}

// TestAdmissionControl pins load shedding: with the single admission
// token held by a request that is itself waiting for the single engine,
// the next query must shed with 429 + Retry-After and code "overloaded",
// and admission must recover once the first request completes.
func TestAdmissionControl(t *testing.T) {
	leakcheck.Check(t)
	g := khcore.BarabasiAlbert(200, 3, 42)
	s, err := newServer(g, nil, serverConfig{
		Engines: 1, Workers: 1, Timeout: 5 * time.Second, MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	h := s.handler()

	// Hold the only engine so an admitted request parks in Acquire.
	e, err := s.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan int, 1)
	go func() {
		resp := get(t, h, "/decompose?h=2&timeout=10s&cache=never", nil)
		first <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	var body errorBody
	resp := get(t, h, "/decompose?h=2", &body)
	if resp.StatusCode != http.StatusTooManyRequests || body.Code != "overloaded" {
		t.Fatalf("overload response: status %d code %q", resp.StatusCode, body.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// Probes bypass admission: a saturated query plane must stay observable.
	if resp := get(t, h, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: status %d", resp.StatusCode)
	}
	if resp := get(t, h, "/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz under load: status %d", resp.StatusCode)
	}

	s.pool.Release(e)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
	if resp := get(t, h, "/decompose?h=2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery admission: status %d", resp.StatusCode)
	}
}

// TestDrainingRejectsQueries pins the draining half of the admission
// controller at the handler level: queries 503 with code "draining",
// /readyz flips to 503, and liveness stays 200 so the orchestrator does
// not kill the draining process.
func TestDrainingRejectsQueries(t *testing.T) {
	s, _ := testServer(t, 1)
	h := s.handler()
	s.draining.Store(true)
	var body errorBody
	if resp := get(t, h, "/decompose?h=2", &body); resp.StatusCode != http.StatusServiceUnavailable || body.Code != "draining" {
		t.Fatalf("query while draining: status %d code %q", resp.StatusCode, body.Code)
	}
	var rz readyzResponse
	if resp := get(t, h, "/readyz", &rz); resp.StatusCode != http.StatusServiceUnavailable || rz.Status != "draining" {
		t.Fatalf("readyz while draining: status %d %+v", resp.StatusCode, rz)
	}
	if resp := get(t, h, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", resp.StatusCode)
	}
}

// TestLatencyTracker pins the EWMA arithmetic degradation decisions rest
// on: first sample adopted outright, later samples folded with weight
// 1/4, populations keyed apart by (h, algo, tier).
func TestLatencyTracker(t *testing.T) {
	var lt latencyTracker
	if _, ok := lt.estimate(2, khcore.HLBUB, false); ok {
		t.Fatal("empty tracker produced an estimate")
	}
	lt.observe(2, khcore.HLBUB, false, 100*time.Millisecond)
	if est, ok := lt.estimate(2, khcore.HLBUB, false); !ok || est != 100*time.Millisecond {
		t.Fatalf("first sample: est=%v ok=%v", est, ok)
	}
	lt.observe(2, khcore.HLBUB, false, 200*time.Millisecond)
	if est, _ := lt.estimate(2, khcore.HLBUB, false); est != 125*time.Millisecond {
		t.Fatalf("EWMA after 100ms,200ms = %v, want 125ms", est)
	}
	// Distinct populations must not bleed into each other.
	if _, ok := lt.estimate(3, khcore.HLBUB, false); ok {
		t.Fatal("h=3 inherited h=2's estimate")
	}
	if _, ok := lt.estimate(2, khcore.HLBUB, true); ok {
		t.Fatal("approx tier inherited the exact estimate")
	}
}

// TestDegradeAutoFallsBack seeds the tracker with an exact estimate far
// beyond the request deadline and demands the server degrade: 200, the
// degraded marker, and the approx block's realized error bound in place
// of a 504 that would deliver nothing.
func TestDegradeAutoFallsBack(t *testing.T) {
	s, g := testServer(t, 1)
	h := s.handler()
	s.lat.observe(2, khcore.HLBUB, false, time.Hour)

	var body decomposeResponse
	resp := get(t, h, "/decompose?h=2&timeout=2s&vertices=1&cache=never", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d", resp.StatusCode)
	}
	if !body.Degraded || body.Approx == nil {
		t.Fatalf("response not marked degraded: degraded=%v approx=%v", body.Degraded, body.Approx)
	}
	if body.Approx.ErrorBound < 1 {
		t.Fatalf("degraded response without a realized error bound: %+v", body.Approx)
	}
	// The degraded answer stays inside its advertised bound.
	exact, err := khcore.Decompose(g, khcore.Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact.Core {
		d := body.Core[v] - exact.Core[v]
		if d < 0 {
			d = -d
		}
		if d > body.Approx.ErrorBound {
			t.Fatalf("vertex %d error %d exceeds bound %d", v, d, body.Approx.ErrorBound)
		}
	}

	// /core degrades through the same path and carries the same markers.
	var cb coreResponse
	if resp := get(t, h, "/core?h=2&k=2&timeout=2s&cache=never", &cb); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /core: status %d", resp.StatusCode)
	}
	if !cb.Degraded || cb.Approx == nil {
		t.Fatalf("/core not marked degraded: %+v", cb)
	}

	// Without a deadline squeeze the same request stays exact.
	var ok2 decomposeResponse
	get(t, h, "/decompose?h=3&timeout=30s", &ok2)
	if ok2.Degraded {
		t.Fatal("request with ample budget degraded")
	}
}

// TestDegradeNeverOptsOut pins the opt-out: with the same doomed-looking
// estimate, degrade=never must run exact anyway (here it succeeds —
// the estimate was a lie — and must NOT carry degradation markers).
func TestDegradeNeverOptsOut(t *testing.T) {
	s, _ := testServer(t, 1)
	h := s.handler()
	s.lat.observe(2, khcore.HLBUB, false, time.Hour)

	var body decomposeResponse
	resp := get(t, h, "/decompose?h=2&timeout=2s&degrade=never", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degrade=never: status %d", resp.StatusCode)
	}
	if body.Degraded || body.Approx != nil {
		t.Fatalf("degrade=never response carries degradation markers: %+v", body)
	}
	// Unknown values are a 400, not a silent default.
	var eb errorBody
	if resp := get(t, h, "/decompose?h=2&degrade=banana", &eb); resp.StatusCode != http.StatusBadRequest || eb.Code != "bad_request" {
		t.Fatalf("degrade=banana: status %d code %q", resp.StatusCode, eb.Code)
	}
}

// TestDegradationUnderRealDeadline drives the full loop without seeded
// estimates: warm both tiers' trackers with real runs, then request a
// deadline inside the window the two estimates leave — under the 1.5×
// exact estimate, so the request degrades, and well above the
// approximate estimate, so the fallback finishes in time — and expect a
// degraded 200 rather than a 504. Skipped only when the window is empty.
// The window needs an exact estimate at least 4/1.4 ≈ 2.9× the
// approximate one; at h = 3, BA(600, 5) gives about 7× on a 2-vCPU
// x86-64 host, while the sparser BA(300, 3) of testServer gives only 2×.
func TestDegradationUnderRealDeadline(t *testing.T) {
	s := testServerOn(t, khcore.BarabasiAlbert(600, 5, 42), 1)
	h := s.handler()
	for _, tier := range []string{"", "&mode=approx"} {
		var warm decomposeResponse
		for i := 0; i < 2; i++ {
			if resp := get(t, h, "/decompose?h=3&cache=never"+tier, &warm); resp.StatusCode != http.StatusOK {
				t.Fatalf("warm-up%s: status %d", tier, resp.StatusCode)
			}
		}
	}
	exact, ok := s.lat.estimate(3, khcore.HLBUB, false)
	approx, ok2 := s.lat.estimate(3, khcore.HLBUB, true)
	if !ok || !ok2 {
		t.Fatal("warm-up did not seed both trackers")
	}
	// 1.4× sits under maybeDegrade's 1.5× threshold; the fallback gets at
	// least 4× its own estimate and never less than 2 ms of slack.
	timeout := exact + exact*2/5
	if floor := max(4*approx, approx+2*time.Millisecond); timeout < floor {
		t.Skipf("exact h=3 estimate %v, approximate %v: no deadline both degrades and fits the fallback", exact, approx)
	}
	var body decomposeResponse
	resp := get(t, h, fmt.Sprintf("/decompose?h=3&timeout=%s&cache=never", timeout), &body)
	if resp.StatusCode != http.StatusOK || !body.Degraded {
		t.Fatalf("squeezed request (timeout %v, exact est %v, approx est %v): status %d degraded=%v",
			timeout, exact, approx, resp.StatusCode, body.Degraded)
	}
}

// TestGracefulShutdown is the end-to-end drain test over a real
// listener: context cancellation (the SIGTERM path) must stop new
// admissions, wait for the in-flight request to finish, and only then
// close the pool and return.
func TestGracefulShutdown(t *testing.T) {
	leakcheck.Check(t)
	g := khcore.BarabasiAlbert(200, 3, 42)
	s, err := newServer(g, nil, serverConfig{
		Engines: 1, Workers: 1, Timeout: 5 * time.Second, Drain: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	httpGet := func(path string) (int, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if code, err := httpGet("/readyz"); err != nil || code != http.StatusOK {
		t.Fatalf("readyz before drain: %d %v", code, err)
	}

	// Park one request on the checked-out engine so the drain has an
	// in-flight request to wait for.
	e, err := s.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan int, 1)
	go func() {
		code, _ := httpGet("/decompose?h=2&timeout=10s&cache=never")
		inflight <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // the SIGTERM path
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-served:
		t.Fatalf("serve returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	s.pool.Release(e) // unblock the in-flight request
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after the drain completed")
	}
	// The pool closes only after the drain.
	if _, err := s.pool.Decompose(context.Background(), khcore.Options{H: 2}); !errors.Is(err, khcore.ErrPoolClosed) {
		t.Fatalf("pool after shutdown: %v", err)
	}
}
