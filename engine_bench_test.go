package khcore_test

// Allocation benchmarks for the reusable Engine (run with
// `go test -bench=Engine -benchmem`): repeated decompositions through one
// warm Engine versus rebuilding the whole working set per call. The
// benchmarks cover both the single-worker zero-alloc path and the default
// parallel pool (which pays only the per-batch goroutine spawns).

import (
	"testing"

	khcore "repro"
)

// benchGraph returns the benchmark graph, the synthetic Barabási–Albert
// graph BA(2000, 4).
func benchGraph() *khcore.Graph { return khcore.BarabasiAlbert(2000, 4, 97) }

func benchmarkEngineRepeated(b *testing.B, workers int) {
	g := benchGraph()
	eng := khcore.NewEngine(g, workers)
	defer eng.Close()
	opts := khcore.Options{H: 2, Algorithm: khcore.HLBUB, Workers: workers}
	var res khcore.Result
	if err := eng.DecomposeInto(&res, opts); err != nil { // warm the scratch arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.DecomposeInto(&res, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkFresh(b *testing.B, workers int) {
	g := benchGraph()
	opts := khcore.Options{H: 2, Algorithm: khcore.HLBUB, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := khcore.Decompose(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDecompose is the headline kernel benchmark: one warm
// Engine, h = 2, each of the three algorithms as a sub-benchmark.
func BenchmarkEngineDecompose(b *testing.B) {
	g := benchGraph()
	for _, alg := range []khcore.Algorithm{khcore.HBZ, khcore.HLB, khcore.HLBUB} {
		b.Run(alg.String(), func(b *testing.B) {
			eng := khcore.NewEngine(g, 1)
			opts := khcore.Options{H: 2, Algorithm: alg, Workers: 1, AllowBaseline: true}
			var res khcore.Result
			if err := eng.DecomposeInto(&res, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.DecomposeInto(&res, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineDecomposeRepeated(b *testing.B) { benchmarkEngineRepeated(b, 1) }
func BenchmarkDecomposeFresh(b *testing.B)          { benchmarkFresh(b, 1) }
func BenchmarkEngineDecomposeParallel(b *testing.B) { benchmarkEngineRepeated(b, 0) }
func BenchmarkDecomposeFreshParallel(b *testing.B)  { benchmarkFresh(b, 0) }

// BenchmarkEngineSpectrum measures the cross-level seeding path: all
// h = 1..3 levels through one scratch arena.
func BenchmarkEngineSpectrum(b *testing.B) {
	g := benchGraph()
	eng := khcore.NewEngine(g, 1)
	opts := khcore.Options{Algorithm: khcore.HLB, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DecomposeSpectrum(3, opts); err != nil {
			b.Fatal(err)
		}
	}
}
