package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	khcore "repro"
)

func itoa(n int) string { return strconv.Itoa(n) }

// post performs one POST /mutate-style request and decodes the JSON body.
func post(t *testing.T, h http.Handler, url, body string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
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

// TestMutateSingleAndBatch drives the full mutation loop: a single
// insert, then a batch delete that undoes it, then an insert naming the
// next vertex id, checking after each step that the served exact
// decomposition is bit-identical to a from-scratch run over the server's
// current graph, that the graph version advances, and that /healthz
// reflects the mutated edge count.
func TestMutateSingleAndBatch(t *testing.T) {
	s, g := testServer(t, 2)
	h := s.handler()

	// Find a non-edge to insert.
	u, v := -1, -1
	for a := 0; a < g.NumVertices() && u < 0; a++ {
		for b := a + 1; b < g.NumVertices(); b++ {
			if !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	var mr mutateResponse
	resp := post(t, h, "/mutate", `{"op":"insert","u":`+itoa(u)+`,"v":`+itoa(v)+`}`, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}
	if mr.Applied != 1 || mr.GraphVersion != 2 || mr.Edges != g.NumEdges()+1 {
		t.Fatalf("insert response: %+v", mr)
	}
	assertServedExact(t, s, h)

	var hb healthzResponse
	get(t, h, "/healthz", &hb)
	if hb.Edges != g.NumEdges()+1 || hb.GraphVersion != 2 || hb.Stale {
		t.Fatalf("healthz after insert: %+v", hb)
	}

	resp = post(t, h, "/mutate", `{"edits":[{"op":"delete","u":`+itoa(u)+`,"v":`+itoa(v)+`}]}`, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch delete: status %d", resp.StatusCode)
	}
	if mr.Applied != 1 || mr.GraphVersion != 3 || mr.Edges != g.NumEdges() {
		t.Fatalf("delete response: %+v", mr)
	}
	assertServedExact(t, s, h)

	// Id n is inside the growth bound and adds one vertex.
	n := g.NumVertices()
	resp = post(t, h, "/mutate", `{"op":"insert","u":0,"v":`+itoa(n)+`}`, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert to id n: status %d", resp.StatusCode)
	}
	if mr.Vertices != n+1 || mr.GraphVersion != 4 {
		t.Fatalf("insert to id n response: %+v", mr)
	}
	assertServedExact(t, s, h)
}

// assertServedExact checks /decompose?h=<mutateH> against a from-scratch
// decomposition of the graph the server currently publishes.
func assertServedExact(t *testing.T, s *server, h http.Handler) {
	t.Helper()
	var body decomposeResponse
	if resp := get(t, h, "/decompose?h=2&vertices=1", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose after mutate: status %d", resp.StatusCode)
	}
	want, err := khcore.Decompose(s.graph(), khcore.Options{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Core {
		if body.Core[v] != want.Core[v] {
			t.Fatalf("core[%d] = %d after mutation, from-scratch says %d", v, body.Core[v], want.Core[v])
		}
	}
}

// TestMutateErrors pins the 400 contract: malformed JSON, unknown ops,
// duplicate inserts, deletes of missing edges, ambiguous bodies and ids
// past the growth bound all reject with code "bad_request" before the
// graph changes.
func TestMutateErrors(t *testing.T) {
	s, g := testServer(t, 1)
	h := s.handler()
	a, b := g.Neighbors(0)[0], 0 // {0, a} is an edge
	n := g.NumVertices()

	cases := []struct {
		name, body string
	}{
		{"bad json", `{"op":`},
		{"unknown op", `{"op":"upsert","u":1,"v":2}`},
		{"duplicate insert", `{"op":"insert","u":` + itoa(b) + `,"v":` + itoa(int(a)) + `}`},
		{"missing delete", `{"op":"delete","u":1,"v":1}`},
		{"ambiguous", `{"op":"insert","u":1,"v":2,"edits":[{"op":"insert","u":3,"v":4}]}`},
		{"batch with one bad edit", `{"edits":[{"op":"insert","u":` + itoa(b) + `,"v":` + itoa(int(a)) + `}]}`},
		{"id above int32", `{"op":"insert","u":1,"v":2147483648}`},
		// a + 2^32 would wrap onto a, deleting the real edge {b, a}.
		{"id wrapping onto an edge", `{"op":"delete","u":` + itoa(b) + `,"v":` + itoa(int(a)+1<<32) + `}`},
		// Growth is bounded by n + 2 per edit: the splice would otherwise
		// allocate every vertex up to the id.
		{"id past the growth bound", `{"op":"insert","u":0,"v":` + itoa(n+1000) + `}`},
		{"batch reaching n+4", `{"edits":[{"op":"insert","u":0,"v":` + itoa(n) + `},{"op":"insert","u":1,"v":` + itoa(n+4) + `}]}`},
	}
	for _, c := range cases {
		var eb errorBody
		resp := post(t, h, "/mutate", c.body, &eb)
		if resp.StatusCode != http.StatusBadRequest || eb.Code != "bad_request" {
			t.Errorf("%s: status %d code %q, want 400 bad_request", c.name, resp.StatusCode, eb.Code)
		}
	}
	var hb healthzResponse
	get(t, h, "/healthz", &hb)
	if hb.GraphVersion != 1 || hb.Edges != g.NumEdges() || s.graph().NumVertices() != n {
		t.Fatalf("rejected mutations changed the graph: %+v", hb)
	}
}

// TestMutateCacheInvalidation pins the result cache's version discipline:
// the maintained h is cached from startup and refreshed in place by a
// mutation, while other (h, algo) entries fill lazily and invalidate on
// the version bump.
func TestMutateCacheInvalidation(t *testing.T) {
	s, _ := testServer(t, 1)
	h := s.handler()

	// Each request decodes into a fresh struct: "cached" is omitempty, so
	// reusing one would carry a stale true across responses.
	cachedAt := func(url string) bool {
		var body decomposeResponse
		if resp := get(t, h, url, &body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", url, resp.StatusCode)
		}
		return body.Cached
	}
	// The maintained h (2) is seeded by the startup decomposition.
	if !cachedAt("/decompose?h=2") {
		t.Fatal("maintained h not cached at startup")
	}
	// Another h misses, then hits.
	if cachedAt("/decompose?h=3") {
		t.Fatal("first h=3 request claims a cache hit")
	}
	if !cachedAt("/decompose?h=3") {
		t.Fatal("second h=3 request missed the cache")
	}
	// cache=never bypasses even a valid entry.
	if cachedAt("/decompose?h=3&cache=never") {
		t.Fatal("cache=never served from the cache")
	}

	var mr mutateResponse
	if resp := post(t, h, "/mutate", `{"op":"delete","u":0,"v":`+itoa(int(s.graph().Neighbors(0)[0]))+`}`, &mr); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
	// The maintained h was refreshed from the repaired indices...
	if !cachedAt("/decompose?h=2") {
		t.Fatal("maintained h not refreshed by the mutation")
	}
	// ...while the h=3 entry went stale with the version bump.
	if cachedAt("/decompose?h=3") {
		t.Fatal("stale h=3 entry served after a mutation")
	}
}

// TestMutateLocalizedRepair runs a maintainer at h=1 — where the dirty
// region provably stays local — and checks the response reports the
// localized path with a bounded region.
func TestMutateLocalizedRepair(t *testing.T) {
	g := khcore.BarabasiAlbert(300, 3, 42)
	s, err := newServer(g, nil, serverConfig{
		Engines: 1, Workers: 1, Timeout: 5 * time.Second, MutateH: 1, MaxInflight: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	h := s.handler()

	var mr mutateResponse
	resp := post(t, h, "/mutate", `{"op":"delete","u":0,"v":`+itoa(int(g.Neighbors(0)[0]))+`}`, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if !mr.Localized {
		t.Fatalf("h=1 delete did not localize: %+v", mr)
	}
	if mr.RegionSize <= 0 || mr.RegionSize >= g.NumVertices()/2 {
		t.Fatalf("implausible region size %d", mr.RegionSize)
	}
	var body decomposeResponse
	get(t, h, "/decompose?h=1&vertices=1", &body)
	want, err := khcore.Decompose(s.graph(), khcore.Options{H: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Core {
		if body.Core[v] != want.Core[v] {
			t.Fatalf("core[%d] = %d after localized repair, want %d", v, body.Core[v], want.Core[v])
		}
	}
}
