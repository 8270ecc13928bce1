package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/graph"
)

// TestServeHeapPlateaus is the serve half of the bounded-memory soak:
// every dataset × algorithm × sram_mb 1–64 on hyve-opt, then the same
// on sd, through a cached server with the rate limit lifted. The first
// pass loads the datasets and fills every memo — functional summaries,
// weighted siblings and the block offsets of each distinct P. The
// second pass asks for the same P values, so the only live memory it
// may add is its results in the LRU. A grid or offsets kept per
// request, or a memo keyed per configuration, shows as growth far past
// that.
func TestServeHeapPlateaus(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	srv := New(Config{Sched: cache.New(cache.Config{}), Rate: 1e6, Burst: 1 << 20})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pass := func(config string) (requests int) {
		for _, d := range graph.Datasets {
			for _, p := range algo.All() {
				for mb := int64(1); mb <= 64; mb++ {
					resp := postJSON(t, ts.URL+"/point",
						PointRequest{Dataset: d.Name, Algo: p.Name(), Config: config, SRAMMB: mb})
					body := readAll(t, resp)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s/%s/%s sram_mb=%d: status %d, body %s",
							d.Name, p.Name(), config, mb, resp.StatusCode, body)
					}
					requests++
				}
			}
		}
		return requests
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	pass("hyve-opt")
	before := liveHeap()
	n := pass("sd")
	after := liveHeap()

	// A cached result holds ~0.5 KB; allow 1 KiB each plus 2 MiB for the
	// runtime and the HTTP stack. One more copy of the offsets memo would
	// add up to 6.6 MB, one retained grid |E|×8 bytes.
	bound := uint64(n)<<10 + 2<<20
	if after > before && after-before > bound {
		t.Fatalf("live heap grew by %d bytes over %d new points (%d → %d), want ≤ %d",
			after-before, n, before, after, bound)
	}
	t.Logf("live heap %d → %d bytes over %d new points (bound %d)", before, after, n, bound)
}
