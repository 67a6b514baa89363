package datasets

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/classic"
	"repro/internal/core"
)

func TestRegistryLoadsAndIsDeterministic(t *testing.T) {
	for _, d := range All() {
		g1, err := Load(d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if g1.NumVertices() == 0 || g1.NumEdges() == 0 {
			t.Fatalf("%s: degenerate graph %v", d.Name, g1)
		}
		g2 := d.Build()
		if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
			t.Fatalf("%s: non-deterministic generator: %v vs %v", d.Name, g1, g2)
		}
		for v := 0; v < g1.NumVertices(); v++ {
			a, b := g1.Neighbors(v), g2.Neighbors(v)
			if len(a) != len(b) {
				t.Fatalf("%s: adjacency of %d differs across builds", d.Name, v)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: adjacency of %d differs across builds", d.Name, v)
				}
			}
		}
	}
}

func TestGetErrors(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get accepted unknown dataset")
	}
	if _, err := Load("nope"); err == nil {
		t.Fatal("Load accepted unknown dataset")
	}
	d, err := Get("jazz")
	if err != nil || d.Name != "jazz" {
		t.Fatalf("Get(jazz) = %v, %v", d, err)
	}
}

func TestSmallAndByClass(t *testing.T) {
	small := Small()
	if len(small) != 3 {
		t.Fatalf("Small() returned %d datasets, want 3 (coli, cele, jazz)", len(small))
	}
	for _, d := range small {
		if d.Scale != 1 {
			t.Fatalf("Small() returned scaled dataset %s", d.Name)
		}
	}
	roads := ByClass(Road)
	if len(roads) != 2 {
		t.Fatalf("ByClass(Road) returned %d datasets, want 2", len(roads))
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names/All length mismatch")
	}
}

// TestScaledDensityTracksPaper checks that each analog's average degree is
// within a factor ~2.5 of the paper original — the property the relative
// experiments depend on.
func TestScaledDensityTracksPaper(t *testing.T) {
	for _, d := range All() {
		g := d.Build()
		paperAvg := 2 * float64(d.PaperE) / float64(d.PaperV)
		got := g.AvgDegree()
		if got < paperAvg/2.5 || got > paperAvg*2.5 {
			t.Errorf("%s: avg degree %.2f vs paper %.2f (off by more than 2.5x)", d.Name, got, paperAvg)
		}
	}
}

// TestPaperGraphGroundTruth pins the Figure 1 fixture to every fact the
// paper states about it (Examples 1, 2, 3, 5 and Figure 2).
func TestPaperGraphGroundTruth(t *testing.T) {
	g := PaperGraph()
	if g.NumVertices() != 13 {
		t.Fatalf("paper graph has %d vertices, want 13", g.NumVertices())
	}

	// Example 1 (left): classic decomposition puts every vertex in core 2.
	c1 := classic.Core(g)
	for v, c := range c1 {
		if c != PaperGraphCores1()[v] {
			t.Fatalf("classic core of paper-vertex %d = %d, want %d", v+1, c, PaperGraphCores1()[v])
		}
	}

	// Example 1 (right): (k,2)-cores 4 / 5,5 / 6×10.
	c2 := core.NaiveDecompose(g, 2)
	for v, c := range c2 {
		if c != PaperGraphCores2()[v] {
			t.Fatalf("(k,2)-core of paper-vertex %d = %d, want %d", v+1, c, PaperGraphCores2()[v])
		}
	}

	// Example 3: LB1(v1)=LB1(v2)=2, LB1(v4)=5, LB2(v2)=5 ≤ core(v2)=5.
	lb1, lb2 := core.LowerBounds(g, 2, 1)
	if lb1[0] != 2 || lb1[1] != 2 || lb1[3] != 5 {
		t.Fatalf("LB1 = %v, want LB1(v1)=LB1(v2)=2, LB1(v4)=5", lb1)
	}
	if lb2[1] != 5 {
		t.Fatalf("LB2(v2) = %d, want 5", lb2[1])
	}
	if lb2[0] != 2 {
		t.Fatalf("LB2(v1) = %d, want 2 (Example 5 seeds v1 in B[2])", lb2[0])
	}

	// Example 5 / Figure 2: UB(v1)=4, UB(rest)=6; deg²(v1)=4. The UB of
	// vertices 2 and 3 is 6 while their true core is 5 — the power-graph
	// counterexample of Example 2.
	ub := core.UpperBounds(g, 2, 1)
	d2 := core.HDegrees(g, 2, 1)
	if ub[0] != 4 {
		t.Fatalf("UB(v1) = %d, want 4", ub[0])
	}
	for v := 1; v < 13; v++ {
		if ub[v] != 6 {
			t.Fatalf("UB(paper-vertex %d) = %d, want 6", v+1, ub[v])
		}
	}
	if d2[0] != 4 {
		t.Fatalf("deg²(v1) = %d, want 4", d2[0])
	}
	if c2[1] != 5 || ub[1] != 6 {
		t.Fatal("Example 2 counterexample not reproduced: power-graph core must exceed true core for vertex 2")
	}

	// Cross-check: classic core of the materialized power graph G² equals
	// Algorithm 5's output.
	pc := classic.Core(g.Power(2))
	for v := range pc {
		if pc[v] != int(ub[v]) {
			t.Fatalf("classic core of G² at %d = %d, Algorithm 5 says %d", v, pc[v], ub[v])
		}
	}
}

// TestPaperGraphAllAlgorithms runs all three decomposition algorithms on
// the fixture for h in 1..4 against the naive reference.
func TestPaperGraphAllAlgorithms(t *testing.T) {
	g := PaperGraph()
	for h := 1; h <= 4; h++ {
		want := core.NaiveDecompose(g, h)
		for _, alg := range []core.Algorithm{core.HBZ, core.HLB, core.HLBUB} {
			res, err := core.Decompose(g, core.Options{H: h, Algorithm: alg, Workers: 1, AllowBaseline: true})
			if err != nil {
				t.Fatalf("h=%d %v: %v", h, alg, err)
			}
			for v := range want {
				if res.Core[v] != want[v] {
					t.Fatalf("h=%d %v: vertex %d core %d, want %d", h, alg, v, res.Core[v], want[v])
				}
			}
		}
	}
}

// TestTopologyClassSignatures checks that each analog carries the
// structural signature of its class — the property the relative
// experiments rely on (see the package documentation): collaboration graphs are strongly
// clustered, road networks are nearly triangle-free with tiny max degree,
// social analogs have heavy-tailed hubs.
func TestTopologyClassSignatures(t *testing.T) {
	clustering := map[string]float64{}
	for _, d := range All() {
		g := d.Build()
		clustering[d.Name] = g.GlobalClustering()
		switch d.Class {
		case Collaboration:
			if clustering[d.Name] < 0.2 {
				t.Errorf("%s: collaboration analog clustering %.3f too low", d.Name, clustering[d.Name])
			}
		case Road:
			if clustering[d.Name] > 0.15 {
				t.Errorf("%s: road analog clustering %.3f too high", d.Name, clustering[d.Name])
			}
			if g.MaxDegree() > 8 {
				t.Errorf("%s: road analog max degree %d too high", d.Name, g.MaxDegree())
			}
		case Social:
			if d.Name == "FBco" {
				// FBco is a union of dense ego networks: its signature is
				// extreme clustering (real FBco: ~0.6), not hub skew.
				if clustering[d.Name] < 0.2 {
					t.Errorf("FBco: clustering %.3f too low for an ego-network union", clustering[d.Name])
				}
				break
			}
			if float64(g.MaxDegree()) < 5*g.AvgDegree() {
				t.Errorf("%s: social analog lacks hubs (max %d, avg %.1f)", d.Name, g.MaxDegree(), g.AvgDegree())
			}
		}
	}
	// Collaboration clustering must dominate the road analogs'.
	for _, collab := range []string{"jazz", "caHe", "caAs"} {
		for _, road := range []string{"rnPA", "rnTX"} {
			if clustering[collab] <= clustering[road] {
				t.Errorf("clustering(%s)=%.3f not above clustering(%s)=%.3f",
					collab, clustering[collab], road, clustering[road])
			}
		}
	}
}

// TestLoadFileAndPathAwareLoad checks the SNAP edge-list path support:
// Load resolves path-shaped names (and bare filenames that exist) through
// the file reader, while registry names keep winning over the filesystem.
func TestLoadFileAndPathAwareLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.txt")
	content := "# comment\n10 20\n20 30\n30 10\n30 40\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("LoadFile: got %d vertices / %d edges, want 4 / 4", g.NumVertices(), g.NumEdges())
	}
	g2, err := Load(path) // path separator → file route
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("Load(path) disagrees with LoadFile(path)")
	}
	if _, err := Load(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("Load accepted a nonexistent path")
	}
	if _, err := Load("no-such-dataset"); err == nil {
		t.Fatal("Load accepted an unknown registry name")
	}
	// A bare (separator-free) name matching a directory in the working
	// directory must fall through to the unknown-dataset error, not be
	// opened as an edge list; an explicit path to a directory surfaces the
	// file-level error instead.
	t.Chdir(dir)
	if err := os.Mkdir("datadir", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("datadir"); err == nil || !strings.Contains(err.Error(), "unknown dataset") {
		t.Fatalf("Load(bare directory name) = %v, want unknown-dataset error", err)
	}
	// A registry name shadowed by a file in the working directory must
	// still resolve to the registry (names win over bare files).
	if g3, err := Load("jazz"); err != nil || g3.NumVertices() == 0 {
		t.Fatalf("registry name stopped resolving: %v", err)
	}
}
