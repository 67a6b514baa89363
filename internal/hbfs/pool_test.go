package hbfs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/vset"
)

// poolPanic is the sentinel the contract test raises inside pool jobs.
type poolPanic struct{ worker int }

// catchPanic runs fn and returns the value it panicked with (nil if none).
func catchPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestPoolFanOutContract pins what every pool fan-out promises, on a
// 1-worker and a 3-worker pool, each at an inline batch size (under
// batchMin) and at a fan-out size:
//   - a panic in a Balls callback or a Run job — on a helper (worker ≥ 1)
//     wherever the pool fans out — reaches the caller with its value;
//   - the pool then computes the same h-degrees as a fresh pool;
//   - a cancel probe that is already true makes every h-degree kernel
//     report 0 evaluated and never calls a Balls callback;
//   - a warm 3-worker pool fans out HDegrees and Balls without allocating.
func TestPoolFanOutContract(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 5)
	n := g.NumVertices()
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	alive := vset.New(n)
	for v := 0; v < n; v += 3 {
		alive.Add(v)
		alive.Add(v + 1)
	}
	const h = 2
	fanSize := 4*batchChunk + 5 // ≥ batchMin, with a tail chunk
	for _, workers := range []int{1, 3} {
		for _, size := range []int{batchMin - 1, fanSize} {
			verts := all[:size]
			p := NewPool(g, workers)
			fans := workers > 1 && size >= batchMin

			// A Balls callback panics: on a helper when the batch fans out
			// (worker 0 holds its first chunk until a helper has panicked,
			// so some helper is sure to claim one), else on worker 0.
			var once sync.Once
			helperPanicked := make(chan struct{})
			got := catchPanic(func() {
				p.Balls(verts, h, alive, func(w int, v int32, ball []int32, shellStart int) {
					switch {
					case !fans:
						panic(poolPanic{w})
					case w > 0:
						once.Do(func() { close(helperPanicked) })
						panic(poolPanic{w})
					case v == verts[0]:
						select {
						case <-helperPanicked:
						case <-time.After(10 * time.Second):
							t.Errorf("workers=%d size=%d: no helper claimed a chunk", workers, size)
						}
					}
				})
			})
			if pp, ok := got.(poolPanic); !ok || (fans && pp.worker == 0) {
				t.Fatalf("workers=%d size=%d: Balls panic reached the caller as %v", workers, size, got)
			}

			// A Run job panics on the last worker (a helper when there is one).
			got = catchPanic(func() {
				p.Run(func(w int, tr *Traversal) {
					if w == workers-1 {
						panic(poolPanic{w})
					}
				})
			})
			if pp, ok := got.(poolPanic); !ok || pp.worker != workers-1 {
				t.Fatalf("workers=%d size=%d: Run panic reached the caller as %v", workers, size, got)
			}

			// The pool is whole again: same h-degrees as a fresh pool.
			fresh := NewPool(g, workers)
			want := make([]int32, n)
			fresh.HDegrees(verts, h, alive, want)
			fresh.Close()
			out := make([]int32, n)
			p.HDegrees(verts, h, alive, out)
			for _, v := range verts {
				if out[v] != want[v] {
					t.Fatalf("workers=%d size=%d: after panics deg(%d) = %d, fresh pool says %d", workers, size, v, out[v], want[v])
				}
			}

			// An already-true cancel probe stops every kernel before its first source.
			p.SetCancel(func() bool { return true })
			if e := p.HDegrees(verts, h, alive, out); e != 0 {
				t.Errorf("workers=%d size=%d: canceled HDegrees evaluated %d", workers, size, e)
			}
			if e := p.HDegreesCapped(verts, h, alive, 5, out); e != 0 {
				t.Errorf("workers=%d size=%d: canceled HDegreesCapped evaluated %d", workers, size, e)
			}
			if e := p.HDegreesSampled(verts, h, alive, 4, 9, out); e != 0 {
				t.Errorf("workers=%d size=%d: canceled HDegreesSampled evaluated %d", workers, size, e)
			}
			var calls atomic.Int32
			p.Balls(verts, h, alive, func(int, int32, []int32, int) { calls.Add(1) })
			if c := calls.Load(); c != 0 {
				t.Errorf("workers=%d size=%d: canceled Balls called back %d times", workers, size, c)
			}
			p.SetCancel(nil)
			p.Close()
		}
	}

	// A warm 3-worker pool fans out without allocating.
	p := NewPool(g, 3)
	defer p.Close()
	out := make([]int32, n)
	var sink atomic.Int64
	fn := func(w int, v int32, ball []int32, shellStart int) { sink.Add(int64(len(ball))) }
	p.HDegrees(all, h, alive, out)
	p.Balls(all, h, alive, fn)
	if a := testing.AllocsPerRun(20, func() { p.HDegrees(all, h, alive, out) }); a != 0 {
		t.Errorf("warm HDegrees fan-out allocates: %.1f allocs/run", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.Balls(all, h, alive, fn) }); a != 0 {
		t.Errorf("warm Balls fan-out allocates: %.1f allocs/run", a)
	}
}
