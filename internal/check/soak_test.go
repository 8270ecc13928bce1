package check

import (
	"runtime"
	"testing"
)

// TestCheckHeapPlateaus is the check half of the bounded-memory soak:
// run N points, then N more on fresh seeds, and require the live heap
// after the second batch to stay where the first left it. Every point
// draws its own graph, and the graph carries the point's memos
// (functional summary, block offsets), so each point's memory must die
// with it; anything a point leaves behind grows with the second batch.
func TestCheckHeapPlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 24
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	batch := func(seed uint64) {
		sum, err := Run(Options{Seed: seed, Points: n})
		if err != nil {
			t.Fatal(err)
		}
		if !sum.OK() || sum.Points != n {
			t.Fatalf("seeds %d+%d: %d points, %d failures", seed, n, sum.Points, len(sum.Failures))
		}
	}
	batch(5000)
	before := liveHeap()
	batch(5000 + n)
	after := liveHeap()
	// A point's graph alone is up to ~80 KB of edges; 512 KiB over 24
	// points catches any per-point leak above ~20 KB.
	const slack = 512 << 10
	if after > before && after-before > slack {
		t.Fatalf("live heap grew by %d bytes over %d more points (%d → %d), want ≤ %d",
			after-before, n, before, after, slack)
	}
	t.Logf("live heap %d → %d bytes over %d more points", before, after, n)
}
