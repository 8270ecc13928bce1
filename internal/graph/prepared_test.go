package graph

import (
	"os"
	"strings"
	"testing"
)

func prepTestDataset(name string, seed uint64) Dataset {
	return Dataset{
		Name: name, Long: "test-" + name, Scale: 1,
		FullVertices: 4096, FullEdges: 40_000,
		RMAT: RMATParams{A: 0.6, B: 0.15, C: 0.15, D: 0.1, Noise: 0.05},
		Seed: seed,
	}
}

// resetPrepared points the prepared directory at dir for the duration
// of the test and drops d's memoized graph so Load exercises the
// prepared path.
func resetPrepared(t *testing.T, dir string, ds ...Dataset) {
	t.Helper()
	SetPreparedDir(dir)
	t.Cleanup(func() { SetPreparedDir("") })
	drop := func() {
		datasetCacheMu.Lock()
		for _, d := range ds {
			delete(datasetCache, d.cacheKey())
		}
		datasetCacheMu.Unlock()
	}
	drop()
	t.Cleanup(drop)
}

func TestPreparedLoadIdentity(t *testing.T) {
	d := prepTestDataset("ZZ", 0x5151)
	want, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f, err := os.Create(d.PreparedPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, want, d.Seed); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resetPrepared(t, dir, d)
	got, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ContentDigest(got) != ContentDigest(want) {
		t.Fatalf("prepared load is not bit-identical to generation")
	}
}

func TestPreparedLoadFallsBackWhenMissing(t *testing.T) {
	d := prepTestDataset("ZM", 0x5252)
	resetPrepared(t, t.TempDir(), d)
	g, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := d.Generate()
	if ContentDigest(g) != ContentDigest(want) {
		t.Fatalf("fallback generation diverged")
	}
}

// TestPreparedLoadRejectsStaleContainer pins the loud-failure contract:
// a well-formed container whose edges don't match what the generator
// produces today (generator drift, wrong seed) must fail, not silently
// serve stale data.
func TestPreparedLoadRejectsStaleContainer(t *testing.T) {
	d := prepTestDataset("ZS", 0x5353)
	other := prepTestDataset("ZS", 0x9999) // same shape, different stream
	stale, err := other.Generate()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	f, err := os.Create(d.PreparedPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0 = "unknown" skips the seed equality check, forcing the
	// chunk-0 fingerprint to catch the mismatch.
	if err := WriteV2(f, stale, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resetPrepared(t, dir, d)
	_, err = d.Load()
	if err == nil {
		t.Fatal("stale container loaded silently")
	}
	if !strings.Contains(err.Error(), "do not match regeneration") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPreparedLoadRejectsWrongSeed(t *testing.T) {
	d := prepTestDataset("ZW", 0x5454)
	g, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(d.PreparedPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, 0xBAD); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resetPrepared(t, dir, d)
	if _, err := d.Load(); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("wrong-seed container not rejected: %v", err)
	}
}

func TestPreparedLoadRejectsWrongSize(t *testing.T) {
	d := prepTestDataset("ZV", 0x5555)
	small := prepTestDataset("ZV", 0x5555)
	small.FullEdges = 20_000
	g, err := small.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(d.PreparedPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, d.Seed); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resetPrepared(t, dir, d)
	if _, err := d.Load(); err == nil || !strings.Contains(err.Error(), "dataset generates") {
		t.Fatalf("wrong-size container not rejected: %v", err)
	}
}

// TestPreparedLoadNamesRegenerateCommand: a container the reader itself
// refuses (here one carrying an unknown header flag, as a file from an
// older writer does) must fail with the command that regenerates it,
// like every other rejection on this path.
func TestPreparedLoadNamesRegenerateCommand(t *testing.T) {
	d := prepTestDataset("ZR", 0x5656)
	g, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := d.PreparedPath(dir)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, d.Seed); err != nil {
		t.Fatal(err)
	}
	var flags [4]byte
	if _, err := f.ReadAt(flags[:], 8); err != nil {
		t.Fatal(err)
	}
	flags[0] |= 1 << 1
	if _, err := f.WriteAt(flags[:], 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resetPrepared(t, dir, d)
	_, err = d.Load()
	if err == nil {
		t.Fatal("container with an unknown flag loaded")
	}
	if want := "hyve-prep -dataset ZR -out " + path; !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name %q: %v", want, err)
	}
}
