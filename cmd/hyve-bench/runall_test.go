package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// fakeSuite builds a registry-like slice whose runners write fixed
// bodies.
func fakeSuite() []experiments.Experiment {
	mk := func(id string) experiments.Experiment {
		return experiments.Experiment{
			ID:    id,
			Title: "title " + id,
			Run: func(w io.Writer, opt experiments.Options) error {
				_, err := fmt.Fprintf(w, "body of %s\nsecond line\n", id)
				return err
			},
		}
	}
	return []experiments.Experiment{mk("alpha"), mk("beta"), mk("gamma"), mk("delta")}
}

// testLogger returns a logger capturing logfmt lines into the buffer at
// debug level, standing in for the binary's stderr logger.
func testLogger(buf *bytes.Buffer) *obs.Logger {
	return obs.NewLogger(buf, obs.LevelDebug)
}

func TestRunAllOrderAndDeterminism(t *testing.T) {
	suite := fakeSuite()
	var serial, par, serialProg, parProg bytes.Buffer
	if err := runAll(&serial, testLogger(&serialProg), suite, experiments.Options{Parallel: -1}, "", false); err != nil {
		t.Fatalf("serial runAll: %v", err)
	}
	if err := runAll(&par, testLogger(&parProg), suite, experiments.Options{Parallel: 8}, "", false); err != nil {
		t.Fatalf("parallel runAll: %v", err)
	}
	// With the timing annotations routed to the progress logger, stdout
	// must be byte-identical between serial and parallel runs.
	if got, want := par.String(), serial.String(); got != want {
		t.Errorf("parallel stdout bytes differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if strings.Contains(par.String(), "msg=run.summary") || strings.Contains(par.String(), "msg=experiment.done") {
		t.Errorf("timing annotations leaked into stdout:\n%s", par.String())
	}
	// Emission must follow registry order regardless of completion order.
	out := par.String()
	last := -1
	for _, e := range suite {
		at := strings.Index(out, "=== "+e.ID+":")
		if at < 0 {
			t.Fatalf("experiment %s missing from output", e.ID)
		}
		if at < last {
			t.Errorf("experiment %s emitted out of order", e.ID)
		}
		last = at
	}
	if !strings.Contains(parProg.String(), "msg=run.summary") || !strings.Contains(parProg.String(), "speedup=") {
		t.Errorf("parallel run missing run.summary with speedup on progress logger:\n%s", parProg.String())
	}
	if strings.Contains(serialProg.String(), "speedup=") {
		t.Errorf("serial run should not log a speedup")
	}
	if !strings.Contains(serialProg.String(), "msg=experiment.done id=alpha") {
		t.Errorf("serial run missing per-experiment timing on progress logger:\n%s", serialProg.String())
	}
	// Every progress line is well-formed logfmt: ts, level, msg fields.
	for _, line := range strings.Split(strings.TrimSpace(parProg.String()), "\n") {
		if !strings.HasPrefix(line, "ts=") || !strings.Contains(line, " level=") || !strings.Contains(line, " msg=") {
			t.Errorf("malformed logfmt line: %q", line)
		}
	}
}

func TestRunAllPropagatesError(t *testing.T) {
	suite := fakeSuite()
	boom := errors.New("boom")
	suite[2].Run = func(w io.Writer, opt experiments.Options) error { return boom }
	for _, workers := range []int{-1, 8} {
		err := runAll(io.Discard, nil, suite, experiments.Options{Parallel: workers}, "", false)
		if err == nil || !errors.Is(err, boom) {
			t.Errorf("Parallel=%d: want wrapped boom error, got %v", workers, err)
		}
		if err != nil && !strings.Contains(err.Error(), "gamma") {
			t.Errorf("Parallel=%d: error should name the failing experiment: %v", workers, err)
		}
	}
}

// TestArtifactBytesIdenticalAcrossWorkers runs two real, deterministic
// experiments at 1 and 8 workers and asserts the per-experiment JSON
// artifacts are byte-identical — the contract that lets CI golden-diff
// artifact directories regardless of machine size. manifest.json is
// excluded: it records worker count and wall time by design.
func TestArtifactBytesIdenticalAcrossWorkers(t *testing.T) {
	var suite []experiments.Experiment
	for _, id := range []string{"table3", "fig9", "reliability"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, e)
	}
	dirs := map[int]string{1: t.TempDir(), 8: t.TempDir()}
	for workers, dir := range dirs {
		opt := experiments.Options{Quick: true, Parallel: workers}
		if workers == 1 {
			opt.Parallel = -1
		}
		if err := runAll(io.Discard, nil, suite, opt, dir, false); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
	for _, e := range suite {
		name := e.ID + ".json"
		a, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[8], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", name, a, b)
		}
		if len(a) == 0 || a[0] != '{' {
			t.Errorf("%s does not look like a JSON document", name)
		}
	}
	for _, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
			t.Errorf("missing manifest.json: %v", err)
		}
	}
}

// TestRunAllResume is the crash-recovery contract: a run that died
// partway (simulated by a partial artifact directory containing one
// valid artifact, one truncated file, and one missing file) plus a
// -resume run must produce an artifact directory byte-identical to one
// uninterrupted run — and must not rerun the experiment whose artifact
// survived.
func TestRunAllResume(t *testing.T) {
	var suite []experiments.Experiment
	for _, id := range []string{"table3", "fig9", "fig14"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, e)
	}
	opt := experiments.Options{Quick: true, Parallel: -1}

	// Reference: one uninterrupted run.
	full := t.TempDir()
	if err := runAll(io.Discard, nil, suite, opt, full, false); err != nil {
		t.Fatal(err)
	}

	// Crashed run: table3 completed, fig9 truncated mid-document (as if
	// written non-atomically by a killed process), fig14 never started.
	part := t.TempDir()
	table3, err := os.ReadFile(filepath.Join(full, "table3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(part, "table3.json"), table3, 0o644); err != nil {
		t.Fatal(err)
	}
	fig9, err := os.ReadFile(filepath.Join(full, "fig9.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(part, "fig9.json"), fig9[:len(fig9)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var progress bytes.Buffer
	if err := runAll(io.Discard, testLogger(&progress), suite, opt, part, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "msg=experiment.resumed id=table3") {
		t.Errorf("valid surviving artifact not skipped:\n%s", progress.String())
	}
	for _, bad := range []string{"msg=experiment.resumed id=fig9", "msg=experiment.resumed id=fig14"} {
		if strings.Contains(progress.String(), bad) {
			t.Errorf("damaged/missing artifact wrongly skipped: %s", bad)
		}
	}
	for _, e := range suite {
		name := e.ID + ".json"
		want, err := os.ReadFile(filepath.Join(full, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(part, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between resumed and uninterrupted run", name)
		}
	}
}

func TestValidArtifactPredicate(t *testing.T) {
	dir := t.TempDir()
	if validArtifact(filepath.Join(dir, "absent.json"), "absent", "d1") {
		t.Error("missing file reported valid")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"hyve/artifact/v1","id":"bad"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if validArtifact(bad, "bad", "d1") {
		t.Error("truncated file reported valid")
	}
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if validArtifact(foreign, "foreign", "d1") {
		t.Error("foreign JSON reported valid")
	}

	// A well-formed artifact is only valid against the exact options
	// digest it was produced under — the stale-artifact fix.
	good := filepath.Join(dir, "good.json")
	art := obs.NewArtifact("good", "a title", obs.Manifest{Digest: "d1"})
	if err := obs.WriteAtomic(good, art.EncodeJSON); err != nil {
		t.Fatal(err)
	}
	if !validArtifact(good, "good", "d1") {
		t.Error("matching artifact reported invalid")
	}
	if validArtifact(good, "good", "d2") {
		t.Error("artifact from different options digest reported valid")
	}
	if validArtifact(good, "other", "d1") {
		t.Error("artifact moved between ids reported valid")
	}

	// An artifact predating the digest field (Manifest.Digest empty)
	// never matches a real digest: pre-digest survivors rerun.
	old := filepath.Join(dir, "old.json")
	if err := obs.WriteAtomic(old, obs.NewArtifact("old", "t", obs.Manifest{}).EncodeJSON); err != nil {
		t.Fatal(err)
	}
	if validArtifact(old, "old", "d1") {
		t.Error("pre-digest artifact reported valid against a real digest")
	}
}

// TestResumeRejectsChangedOptions is the stale-artifact regression test:
// artifacts produced at one dataset scale/seed must not survive a
// -resume at another. Before the options digest, validArtifact accepted
// any well-formed artifact with the right id, so the resumed run would
// silently keep results computed from different graphs.
func TestResumeRejectsChangedOptions(t *testing.T) {
	var suite []experiments.Experiment
	for _, id := range []string{"table3", "fig9"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, e)
	}
	opt := experiments.Options{Quick: true, Parallel: -1}
	dir := t.TempDir()
	if err := runAll(io.Discard, nil, suite, opt, dir, false); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "table3.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Same experiments, same directory — but the datasets are re-scaled
	// and re-seeded, exactly what `hyve-bench -resume -scale 2 -seed 7`
	// does.
	reseeded := opt
	reseeded.Datasets = scaledDatasets(true, 2, 7)
	var progress bytes.Buffer
	if err := runAll(io.Discard, testLogger(&progress), suite, reseeded, dir, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(progress.String(), "msg=experiment.resumed") {
		t.Errorf("artifact from different options was resumed:\n%s", progress.String())
	}
	after, err := os.ReadFile(filepath.Join(dir, "table3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before, after) {
		t.Error("re-seeded run left the stale artifact bytes in place")
	}

	// A repeat resume under the same changed options now skips everything
	// and says so without a speedup line.
	progress.Reset()
	if err := runAll(io.Discard, testLogger(&progress), suite, reseeded, dir, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"msg=experiment.resumed id=table3", "msg=experiment.resumed id=fig9", "msg=run.reuse executed=0 reused=2"} {
		if !strings.Contains(progress.String(), want) {
			t.Errorf("repeat resume missing %q:\n%s", want, progress.String())
		}
	}
}

// TestResumeRerunsEarlierMethod: an artifact written by an earlier
// method of an experiment — fig20 when it timed this process — carries
// that method's digest. -resume must rerun it although the options are
// the same, and still resume table3, whose method did not change.
func TestResumeRerunsEarlierMethod(t *testing.T) {
	var suite []experiments.Experiment
	for _, id := range []string{"table3", "fig20"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, e)
	}
	opt := experiments.Options{Quick: true, Parallel: -1}
	dir := t.TempDir()
	if err := runAll(io.Discard, nil, suite[:1], opt, dir, false); err != nil {
		t.Fatal(err)
	}
	// Revision 0's digest is the one every artifact carried before
	// revisions existed.
	timed := suite[1]
	timed.Revision = 0
	stale := experiments.NewRunArtifact(timed, opt)
	stale.AddTable("update-throughput", []string{"dataset", "HyVE", "GraphR", "ratio"},
		[][]string{{"YT", "2.71", "1.21", "2.24"}, {"WK", "2.50", "1.19", "2.10"}})
	stale.AddMetric("fig20.mean_ratio", 2.17, "x")
	path := filepath.Join(dir, "fig20.json")
	if err := obs.WriteAtomic(path, stale.EncodeJSON); err != nil {
		t.Fatal(err)
	}
	if !validArtifact(path, "fig20", experiments.OptionsDigest(timed, opt)) {
		t.Fatal("the stale artifact is not valid under its own method's digest")
	}

	var progress bytes.Buffer
	if err := runAll(io.Discard, testLogger(&progress), suite, opt, dir, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "msg=experiment.resumed id=table3") {
		t.Errorf("table3 not resumed:\n%s", progress.String())
	}
	if strings.Contains(progress.String(), "msg=experiment.resumed id=fig20") {
		t.Errorf("fig20 from the timed method resumed:\n%s", progress.String())
	}
	if !validArtifact(path, "fig20", experiments.OptionsDigest(suite[1], opt)) {
		t.Error("fig20 was not rewritten under the current method's digest")
	}
}

// TestColdWarmCacheByteIdentity is the end-to-end cache contract: a cold
// run through a disk-backed scheduler and a warm run through a fresh
// scheduler over the same store must produce byte-identical artifacts,
// and the warm run must execute zero simulation points.
func TestColdWarmCacheByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick sweep twice; skip under -short")
	}
	var suite []experiments.Experiment
	for _, id := range []string{"table3", "fig9", "fig14", "reliability"} {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, e)
	}
	cacheDir := t.TempDir()
	coldDir, warmDir := t.TempDir(), t.TempDir()

	cold := cache.New(cache.Config{Dir: cacheDir})
	opt := experiments.Options{Quick: true, Parallel: 4, Cache: cold}
	if err := runAll(io.Discard, nil, suite, opt, coldDir, false); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Executed == 0 {
		t.Fatalf("cold run executed nothing: %+v", st)
	}

	warm := cache.New(cache.Config{Dir: cacheDir})
	opt.Cache = warm
	if err := runAll(io.Discard, nil, suite, opt, warmDir, false); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Executed != 0 {
		t.Errorf("warm run re-executed %d points (stats %+v)", st.Executed, st)
	}
	if st.DiskHits == 0 && st.MemHits == 0 {
		t.Errorf("warm run hit nothing: %+v", st)
	}

	for _, e := range suite {
		name := e.ID + ".json"
		a, err := os.ReadFile(filepath.Join(coldDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(warmDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between cold and warm cache runs", name)
		}
	}
}

// TestGoldenQuickArtifacts holds the current build to artifacts captured
// before the fault-injection layer existed: with the fault layer at its
// zero value, every experiment's canonical JSON must remain byte-for-
// byte what it was. Regenerate the goldens (only after an intentional
// output change) with:
//
//	go run ./cmd/hyve-bench -quick -run table3,fig9,fig14,fig16 \
//	    -artifact-dir cmd/hyve-bench/testdata/golden-quick
//	rm cmd/hyve-bench/testdata/golden-quick/manifest.json
func TestGoldenQuickArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep still simulates every config; skip under -short")
	}
	ids := []string{"table3", "fig9", "fig14", "fig16"}
	var suite []experiments.Experiment
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, e)
	}
	dir := t.TempDir()
	if err := runAll(io.Discard, nil, suite, experiments.Options{Quick: true}, dir, false); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		got, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden-quick", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.json drifted from the pre-fault-layer golden (%d vs %d bytes)", id, len(got), len(want))
		}
	}
}
