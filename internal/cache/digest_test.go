package cache

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/units"
)

func testPoint(t *testing.T) (core.Config, core.Workload) {
	t.Helper()
	g, err := graph.GenerateUniform(256, 1024, 42)
	if err != nil {
		t.Fatal(err)
	}
	return core.HyVE(), core.Workload{DatasetName: "test", Graph: g, Program: algo.NewPageRank()}
}

func mustDigest(t *testing.T, cfg core.Config, w core.Workload) Digest {
	t.Helper()
	d, err := PointDigest(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPointDigestDeterministic(t *testing.T) {
	cfg, w := testPoint(t)
	if d1, d2 := mustDigest(t, cfg, w), mustDigest(t, cfg, w); d1 != d2 {
		t.Errorf("same point, different digests: %s vs %s", d1, d2)
	}
}

// TestPointDigestSensitivity flips every result-affecting knob the digest
// claims to cover and requires each flip to move the digest — the
// property that makes a digest match safe to treat as "same point".
func TestPointDigestSensitivity(t *testing.T) {
	cfg, w := testPoint(t)
	base := mustDigest(t, cfg, w)
	seen := map[Digest]string{base: "base"}
	check := func(name string, c core.Config, wl core.Workload) {
		t.Helper()
		d := mustDigest(t, c, wl)
		if prev, dup := seen[d]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
			return
		}
		seen[d] = name
	}

	mutations := []struct {
		name string
		mut  func(*core.Config, *core.Workload)
	}{
		{"cfg.Name", func(c *core.Config, _ *core.Workload) { c.Name = "other" }},
		{"cfg.NumPUs", func(c *core.Config, _ *core.Workload) { c.NumPUs *= 2 }},
		{"cfg.SRAMBytes", func(c *core.Config, _ *core.Workload) { c.SRAMBytes *= 2 }},
		{"cfg.UseOnChipSRAM", func(c *core.Config, _ *core.Workload) { c.UseOnChipSRAM = !c.UseOnChipSRAM }},
		{"cfg.EdgeMemory", func(c *core.Config, _ *core.Workload) { c.EdgeMemory = core.MemDRAM }},
		{"cfg.VertexMemory", func(c *core.Config, _ *core.Workload) { c.VertexMemory = core.MemReRAM }},
		{"cfg.DataSharing", func(c *core.Config, _ *core.Workload) { c.DataSharing = !c.DataSharing }},
		{"cfg.PowerGating", func(c *core.Config, _ *core.Workload) { c.PowerGating = !c.PowerGating }},
		{"cfg.SyncOverhead", func(c *core.Config, _ *core.Workload) { c.SyncOverhead *= 3 }},
		{"cfg.RerouteCycles", func(c *core.Config, _ *core.Workload) { c.RerouteCycles += 5 }},
		{"rram.Banks", func(c *core.Config, _ *core.Workload) { c.RRAM.Banks *= 2 }},
		{"rram.Cell.ReadVoltage", func(c *core.Config, _ *core.Workload) { c.RRAM.Cell.ReadVoltage += 0.1 }},
		{"dram.DataRateMTs", func(c *core.Config, _ *core.Workload) { c.DRAM.DataRateMTs *= 2 }},
		{"dram.Currents.IDD0", func(c *core.Config, _ *core.Workload) { c.DRAM.Currents.IDD0 += 1 }},
		{"gate.IdleTimeout", func(c *core.Config, _ *core.Workload) { c.Gate.IdleTimeout += units.Time(1) }},
		{"fault.Enabled", func(c *core.Config, _ *core.Workload) { c.Fault.Enabled = true }},
		{"fault.Seed", func(c *core.Config, _ *core.Workload) { c.Fault.Enabled = true; c.Fault.Seed = 99 }},
		{"wl.DatasetName", func(_ *core.Config, wl *core.Workload) { wl.DatasetName = "renamed" }},
		{"wl.FullVertices", func(_ *core.Config, wl *core.Workload) { wl.FullVertices = 1 << 20 }},
		{"wl.FullEdges", func(_ *core.Config, wl *core.Workload) { wl.FullEdges = 1 << 22 }},
		{"wl.Program", func(_ *core.Config, wl *core.Workload) { wl.Program = algo.NewBFS(0) }},
		{"wl.Iterations", func(_ *core.Config, wl *core.Workload) { wl.Iterations = 7 }},
		{"wl.ActivityFactor", func(_ *core.Config, wl *core.Workload) { wl.ActivityFactor = 0.5 }},
		{"wl.UpdateFactor", func(_ *core.Config, wl *core.Workload) { wl.UpdateFactor = 0.25 }},
	}
	for _, m := range mutations {
		c, wl := cfg, w
		m.mut(&c, &wl)
		check(m.name, c, wl)
	}

	// A different graph with the same dataset label must change the
	// digest — the exact confusion behind the stale -resume bug.
	g2, err := graph.GenerateUniform(256, 1024, 43)
	if err != nil {
		t.Fatal(err)
	}
	w2 := w
	w2.Graph = g2
	check("wl.Graph content", cfg, w2)
}

// TestPointDigestIgnoresHostKnobs pins the deliberate exclusions:
// parallelism never changes result bytes (the repo's bit-identity
// contract), so it must not fragment the cache.
func TestPointDigestIgnoresHostKnobs(t *testing.T) {
	cfg, w := testPoint(t)
	base := mustDigest(t, cfg, w)
	cfg.Parallelism = 8
	if d := mustDigest(t, cfg, w); d != base {
		t.Errorf("Parallelism changed the digest: %s vs %s", d, base)
	}
}

func TestPointDigestRejectsIncompletePoints(t *testing.T) {
	cfg, w := testPoint(t)
	noGraph := w
	noGraph.Graph = nil
	if _, err := PointDigest(cfg, noGraph); err == nil {
		t.Error("nil graph digested")
	}
	noProg := w
	noProg.Program = nil
	if _, err := PointDigest(cfg, noProg); err == nil {
		t.Error("nil program digested")
	}
}

// TestGraphDigestContentAddressed: equal structure → equal digest across
// distinct instances; different edges or weights → different digest.
func TestGraphDigestContentAddressed(t *testing.T) {
	g1, err := graph.GenerateUniform(128, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.GenerateUniform(128, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	if GraphDigest(g1) != GraphDigest(g2) {
		t.Error("structurally identical graphs digest differently")
	}
	g3, err := graph.GenerateUniform(128, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	if GraphDigest(g1) == GraphDigest(g3) {
		t.Error("different edge sets share a digest")
	}
	g4, err := graph.GenerateUniform(128, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	graph.AttachUniformWeights(g4, 8, 7)
	if GraphDigest(g1) == GraphDigest(g4) {
		t.Error("weighted and unweighted instances share a digest")
	}
	// Memoized: repeated calls on one instance agree.
	if GraphDigest(g1) != GraphDigest(g1) {
		t.Error("memoized digest unstable")
	}
}

// TestDroppedGraphIsCollected: digesting and simulating a graph and its
// weighted sibling, directly and through a scheduler that outlives them,
// keeps neither alive past the caller's last reference. The digest and
// functional memos live on the graphs and die with them; no
// process-wide table holds a graph, and a scheduler holds only results.
func TestDroppedGraphIsCollected(t *testing.T) {
	collected := make(chan string, 2)
	s := New(Config{})
	func() {
		g, err := graph.GenerateUniform(256, 1024, 42)
		if err != nil {
			t.Fatal(err)
		}
		wg := g.WithUniformWeights(8, 1)
		for _, w := range []core.Workload{
			{DatasetName: "test", Graph: g, Program: algo.NewPageRank()},
			{DatasetName: "test", Graph: wg, Program: algo.NewSSSP(0)},
		} {
			mustDigest(t, core.HyVE(), w)
			if _, err := core.Simulate(core.HyVE(), w); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Simulate(core.HyVE(), w); err != nil {
				t.Fatal(err)
			}
		}
		note := func(*graph.Graph) { collected <- "" }
		runtime.SetFinalizer(g, note)
		runtime.SetFinalizer(wg, note)
	}()
	deadline := time.After(10 * time.Second)
	for n := 0; n < 2; {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of 2 dropped graphs collected after 10 s of GC", n)
		}
	}
	runtime.KeepAlive(s)
}

// TestDigestCoversEveryField pins the field count of every struct the
// digest serializes. Adding a field to any of them fails this test until
// the new field is either folded into PointDigest (and DigestSchema
// bumped) or explicitly added to the exclusion list below.
func TestDigestCoversEveryField(t *testing.T) {
	pins := []struct {
		v      any
		fields int
	}{
		// 15 digested + 1 excluded host knob (Parallelism).
		{core.Config{}, 16},
		{core.Workload{}, 8},
		{rram.Config{}, 5},
		{rram.CellParams{}, 8},
		{dram.Config{}, 5},
		{dram.IDD{}, 6},
		{mem.PowerGateParams{}, 5},
		{fault.Config{}, 9},
	}
	for _, p := range pins {
		typ := reflect.TypeOf(p.v)
		if got := typ.NumField(); got != p.fields {
			t.Errorf("%s has %d fields, digest pin expects %d — extend PointDigest, bump DigestSchema, then update this pin",
				typ, got, p.fields)
		}
	}
}

func TestHasherFraming(t *testing.T) {
	// Same concatenated bytes, different field boundaries, must not
	// collide: the framing exists exactly for this.
	a := NewHasher()
	a.Str("t", "ab")
	a.Str("t", "c")
	b := NewHasher()
	b.Str("t", "a")
	b.Str("t", "bc")
	if a.Sum() == b.Sum() {
		t.Error("string framing aliases across boundaries")
	}
	// Same payload bits under different kinds must not collide.
	u := NewHasher()
	u.U64("t", 1)
	i := NewHasher()
	i.I64("t", 1)
	if u.Sum() == i.Sum() {
		t.Error("u64 and i64 with equal bits collide")
	}
}
