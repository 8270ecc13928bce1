package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// runAll executes every experiment and writes the artifacts to w in the
// given (paper) order; timing and lifecycle events go to log as leveled
// logfmt lines (stderr in the binary), so w carries only the
// deterministic artifact bytes and stays pipeable. A serial run streams
// each experiment straight to w; with more than one worker the
// experiments run concurrently into per-experiment buffers and are
// emitted in order once all are complete. Both paths produce the same
// artifact bytes.
//
// The run is observable end to end: a "bench run" span parents one
// "experiment <id>" span per executed experiment (and, through
// Options.Ctx, the point spans the cache scheduler opens under them),
// experiment lifecycle lands in the flight recorder, and the process
// recorder carries bench.experiments.total/completed/reused so a live
// monitor can compute progress and ETA. All of it is free when tracing
// is disabled and the recorder is the no-op default.
//
// With artifactDir non-empty, every experiment also emits its canonical
// JSON artifact (<id>.json) there, plus a run-level manifest.json
// recording worker count and wall time — the host-side facts that must
// stay out of the per-experiment documents so those are byte-identical
// at any -parallel value. Artifact files are written atomically
// (obs.WriteAtomic): a run killed mid-write never leaves a truncated
// document under a final name.
//
// With resume also set, experiments whose artifact file already exists,
// decodes strictly, validates, and carries the current options digest
// are skipped — their files are left byte-for-byte untouched — and only
// the missing, damaged, or differently-configured ones run. Because
// artifact content is deterministic, a crashed run plus a -resume run
// produces exactly the bytes one uninterrupted run would have (pinned by
// TestRunAllResume); an artifact produced under different options (a
// changed -scale or -seed, a quick run resumed at full scale) fails the
// digest comparison and reruns (TestResumeRejectsChangedOptions).
func runAll(w io.Writer, log *obs.Logger, todo []experiments.Experiment, opt experiments.Options, artifactDir string, resume bool) error {
	workers := parallel.Workers(opt.Parallel)
	if opt.Parallel < 0 {
		workers = 1
	}
	rec := obs.Default()
	start := time.Now()
	elapsed := make([]time.Duration, len(todo))
	runCtx, runSpan := obs.StartSpan(context.Background(), "bench run",
		"experiments", strconv.Itoa(len(todo)), "workers", strconv.Itoa(workers))
	defer runSpan.End()

	arts := make([]*obs.Artifact, len(todo))
	skip := make([]bool, len(todo))
	if artifactDir != "" {
		if err := os.MkdirAll(artifactDir, 0o755); err != nil {
			return err
		}
		for i, e := range todo {
			arts[i] = experiments.NewRunArtifact(e, opt)
			if resume {
				skip[i] = validArtifact(filepath.Join(artifactDir, e.ID+".json"), e.ID, experiments.OptionsDigest(e, opt))
				if skip[i] {
					log.Info("experiment.resumed", "id", e.ID)
				}
			}
		}
	}
	rec.Gauge("bench.experiments.total", float64(len(todo)))

	runOne := func(i int, out io.Writer) error {
		o := opt
		o.Artifact = arts[i]
		ectx, span := obs.StartSpan(runCtx, "experiment "+todo[i].ID, "title", todo[i].Title)
		o.Ctx = ectx
		obs.Flight().Record("bench.experiment.start", todo[i].ID)
		log.Debug("experiment.start", "id", todo[i].ID)
		t0 := time.Now()
		if err := todo[i].Run(out, o); err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			obs.Flight().Record("bench.experiment.fail", todo[i].ID, "err", err.Error())
			log.Error("experiment.fail", "id", todo[i].ID, "err", err)
			return fmt.Errorf("%s failed: %w", todo[i].ID, err)
		}
		elapsed[i] = time.Since(t0)
		span.End()
		obs.Flight().Record("bench.experiment.done", todo[i].ID, "elapsed", elapsed[i].String())
		rec.Count("bench.experiments.completed", 1)
		return nil
	}
	header := func(i int) {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s: %s ===\n", todo[i].ID, todo[i].Title)
	}
	footer := func(i int) {
		log.Info("experiment.done", "id", todo[i].ID, "elapsed", elapsed[i].Round(time.Millisecond))
	}
	writeArtifact := func(i int) error {
		if arts[i] == nil || skip[i] {
			return nil
		}
		return obs.WriteAtomic(filepath.Join(artifactDir, todo[i].ID+".json"), arts[i].EncodeJSON)
	}
	writeManifest := func() error {
		if artifactDir == "" {
			return nil
		}
		m := obs.RunManifest{
			Schema:      obs.ArtifactSchema,
			Tool:        "hyve-bench",
			Quick:       opt.Quick,
			Workers:     workers,
			WallSeconds: time.Since(start).Seconds(),
		}
		for i, e := range todo {
			m.Experiments = append(m.Experiments, obs.RunArtifact{
				ID: e.ID, Title: e.Title, File: e.ID + ".json",
				Seconds: elapsed[i].Seconds(),
			})
		}
		return obs.WriteAtomic(filepath.Join(artifactDir, "manifest.json"), m.EncodeJSON)
	}

	reused := 0
	for i := range todo {
		if skip[i] {
			reused++
		}
	}
	rec.Count("bench.experiments.reused", int64(reused))
	summarizeReuse := func() {
		if reused > 0 {
			log.Info("run.reuse", "executed", len(todo)-reused, "reused", reused)
		}
	}

	if workers <= 1 || len(todo) == 1 {
		for i := range todo {
			header(i)
			if skip[i] {
				continue
			}
			if err := runOne(i, w); err != nil {
				return err
			}
			footer(i)
			if err := writeArtifact(i); err != nil {
				return err
			}
		}
		if err := writeManifest(); err != nil {
			return err
		}
		summarizeReuse()
		return nil
	}

	bufs := make([]bytes.Buffer, len(todo))
	var pending []int
	for i := range todo {
		if !skip[i] {
			pending = append(pending, i)
		}
	}
	err := parallel.ForEach(workers, len(pending), func(k int) error {
		i := pending[k]
		return runOne(i, &bufs[i])
	})
	if err != nil {
		return err
	}

	var aggregate time.Duration
	for i := range todo {
		header(i)
		if skip[i] {
			continue
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		footer(i)
		if err := writeArtifact(i); err != nil {
			return err
		}
		aggregate += elapsed[i]
	}
	if err := writeManifest(); err != nil {
		return err
	}

	summarizeReuse()
	executed := len(todo) - reused
	if executed == 0 {
		// Nothing ran: a speedup over zero aggregate time would divide
		// zero by wall and report a meaningless figure.
		log.Info("run.summary", "wall", time.Since(start).Round(time.Millisecond),
			"executed", 0, "reused", reused)
		return nil
	}
	// The aggregate covers executed experiments only — reused ones cost
	// no experiment time and must not inflate (or deflate) the speedup.
	wall := time.Since(start)
	log.Info("run.summary", "wall", wall.Round(time.Millisecond),
		"experiment_time", aggregate.Round(time.Millisecond),
		"executed", executed, "workers", workers,
		"speedup", aggregate.Seconds()/wall.Seconds())
	return nil
}

// validArtifact reports whether the file at path is a complete, valid
// artifact for experiment id produced under the options digest — the
// -resume predicate. Anything short of a strict decode plus schema
// validation plus a matching id AND a matching options digest (a missing
// file, a truncated document, a foreign JSON object, an artifact moved
// between ids, an artifact produced under a different -scale/-seed/
// -quick or by an earlier method of the experiment, or one predating
// the digest) means the experiment reruns;
// atomically-written files make truncation impossible in practice, but
// the predicate never trusts that.
func validArtifact(path, id, digest string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	a, err := obs.DecodeJSON(f)
	if err != nil {
		return false
	}
	return a.Validate() == nil && a.ID == id && a.Manifest.Digest == digest
}
