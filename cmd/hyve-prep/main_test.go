package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestGenerateSpecs(t *testing.T) {
	g, seed, err := generate("rmat:1000:5000:7")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1000 || g.NumEdges() != 5000 {
		t.Errorf("rmat spec produced %d/%d", g.NumVertices, g.NumEdges())
	}
	if seed != 7 {
		t.Errorf("seed = %d, want 7", seed)
	}
	if _, _, err := generate("uniform:100:300"); err != nil {
		t.Errorf("uniform spec: %v", err)
	}
	for _, bad := range []string{"rmat:1000", "rmat:x:5", "rmat:5:x", "rmat:5:5:x", "weird:1:2", ""} {
		if _, _, err := generate(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestLoadDispatch(t *testing.T) {
	if _, _, _, err := load(options{}); err == nil {
		t.Error("no input accepted")
	}
	if _, _, _, err := load(options{in: "a.txt", gen: "rmat:1:1"}); err == nil {
		t.Error("both inputs accepted")
	}
	if _, _, _, err := load(options{in: "a.txt", dataset: "YT"}); err == nil {
		t.Error("in+dataset accepted")
	}
	if _, _, _, err := load(options{in: "/does/not/exist.txt"}); err == nil {
		t.Error("missing file accepted")
	}
	g, _, _, err := load(options{gen: "uniform:50:100:3"})
	if err != nil || g.NumEdges() != 100 {
		t.Errorf("generator load failed: %v", err)
	}
	g, seed, ds, err := load(options{dataset: "YT"})
	if err != nil {
		t.Fatalf("dataset load: %v", err)
	}
	if ds == nil || ds.Name != "YT" || seed != ds.Seed {
		t.Errorf("dataset metadata: ds=%v seed=%#x", ds, seed)
	}
	if g.NumVertices != ds.GenVertices() || g.NumEdges() != ds.GenEdges() {
		t.Errorf("dataset instance %d/%d, want %d/%d",
			g.NumVertices, g.NumEdges(), ds.GenVertices(), ds.GenEdges())
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.hyve2")
	img := filepath.Join(dir, "g.img")
	o := options{gen: "rmat:2000:9000:4", out: out, p: 16, hashed: true, occupancy: 8, stats: true, image: img}
	if err := run(o); err != nil {
		t.Fatalf("run (generate+write): %v", err)
	}
	info, err := os.Stat(img)
	if err != nil {
		t.Fatalf("edge image not written: %v", err)
	}
	// 9000 edges × 8B + 256 headers × 12B.
	if want := int64(9000*8 + 256*12); info.Size() != want {
		t.Fatalf("image size %d, want %d", info.Size(), want)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("container not written: %v", err)
	}
	// Read the container back through the full pipeline.
	if err := run(options{in: out, p: 8, stats: true}); err != nil {
		t.Fatalf("run (read container): %v", err)
	}
	// Any other output name is refused before the graph is built.
	if err := run(options{gen: "rmat:2000:9000:4", out: filepath.Join(dir, "g.bin")}); err == nil {
		t.Fatal("-out without .hyve2 accepted")
	}
	// Text edge-list path.
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{in: txt, p: 3, hashed: true, occupancy: 2, stats: true}); err != nil {
		t.Fatalf("run (text): %v", err)
	}
}

// TestRunV2Compile drives the offline-compiler path end to end: compile
// a generated graph to a v2 container with grid sections, verify
// it, then reload it through -in and verify it again.
func TestRunV2Compile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "g.hyve2")
	o := options{
		gen: "rmat:2000:9000:4", out: out,
		grid: "8", budgetMB: 1, verify: true, stats: false, hashed: true,
	}
	if err := run(o); err != nil {
		t.Fatalf("compile v2: %v", err)
	}
	c, err := graph.OpenV2(out)
	if err != nil {
		t.Fatal(err)
	}
	if c.GridP() != 8 || c.Seed() != 4 {
		t.Fatalf("container: gridP=%d seed=%d", c.GridP(), c.Seed())
	}
	c.Close()

	// Round-trip: .hyve2 as input, verify only.
	if err := run(options{in: out, verify: true, stats: true}); err != nil {
		t.Fatalf("verify existing container: %v", err)
	}
}

// TestRunV2GridAuto pins that -grid auto picks the P a simulation will
// request, so the prepared fast path fires.
func TestRunV2GridAuto(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "auto.hyve2")
	o := options{
		gen: "rmat:4096:20000:9", out: out,
		grid: "auto", config: "hyve-opt", algoName: "PR",
		budgetMB: 1, verify: true, hashed: true,
	}
	if err := run(o); err != nil {
		t.Fatalf("compile with -grid auto: %v", err)
	}
	c, err := graph.OpenV2(out)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.GridP() == 0 {
		t.Fatal("auto grid produced no grid sections")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "c.hyve2")
	if err := run(options{gen: "uniform:500:2000:2", out: out, grid: "off"}); err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the stored digest: structural validation still
	// passes, content verification must not.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	data[48] ^= 0xFF
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verifyContainer(out); err == nil {
		t.Fatal("digest corruption not caught")
	}
}
