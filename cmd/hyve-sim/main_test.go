package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/cluster/jobs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/point"
	"repro/internal/serve"
)

// spec is the single-point shorthand the tests run.
func spec(dataset, algon, config string) point.Spec {
	return point.Spec{Dataset: dataset, Algo: algon, Config: config, SRAMMB: 2}
}

func TestRunOneSmokesEveryConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	for _, config := range []string{"hyve-opt", "sd", "graphr", "cpu", "cpu-opt"} {
		if err := runOne(io.Discard, spec("YT", "PR", config), true, modeText); err != nil {
			t.Errorf("runOne(YT, PR, %s): %v", config, err)
		}
	}
	if err := runOne(io.Discard, spec("nope", "PR", "hyve"), false, modeText); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := runOne(io.Discard, spec("YT", "nope", "hyve"), false, modeText); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestRunOneJSON checks -json emits a decodable artifact document with
// the headline metrics, for both the core simulator and a baseline.
func TestRunOneJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	for _, config := range []string{"hyve-opt", "graphr"} {
		var buf bytes.Buffer
		if err := runOne(&buf, spec("YT", "PR", config), false, modeArtifact); err != nil {
			t.Fatalf("runOne(YT, PR, %s, json): %v", config, err)
		}
		var doc struct {
			Schema  string `json:"schema"`
			ID      string `json:"id"`
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("config %s: output is not valid JSON: %v\n%s", config, err, buf.String())
		}
		if doc.Schema == "" || doc.ID == "" {
			t.Errorf("config %s: missing schema/id in %s", config, buf.String())
		}
		found := false
		for _, m := range doc.Metrics {
			if m.Name == "efficiency" && m.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("config %s: no positive efficiency metric in %s", config, buf.String())
		}
	}
}

// TestRunOneResult checks -result emits exactly the canonical
// hyve/result/v1 document of a direct core.Simulate — the byte-identity
// the serve-smoke gate compares against hyve-serve responses.
func TestRunOneResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	var buf bytes.Buffer
	if err := runOne(&buf, spec("YT", "PR", "sd"), false, modeResult); err != nil {
		t.Fatalf("runOne(YT, PR, sd, result): %v", err)
	}
	d, err := graph.DatasetByName("YT")
	if err != nil {
		t.Fatal(err)
	}
	p, err := algo.ByName("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := core.WorkloadFor(d, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Simulate(core.SRAMDRAM(), wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cache.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-result output is not the canonical document:\ngot  %.120s\nwant %.120s", buf.Bytes(), want)
	}
	if _, err := cache.DecodeResult(buf.Bytes()); err != nil {
		t.Errorf("-result output does not decode: %v", err)
	}
	if err := runOne(io.Discard, spec("YT", "PR", "graphr"), false, modeResult); err == nil {
		t.Error("-result accepted a baseline config with no canonical document")
	}
	// -sram 0 keeps the configuration default (2 MB), like sram_mb 0 on
	// the wire.
	var dflt bytes.Buffer
	if err := runOne(&dflt, point.Spec{Dataset: "YT", Algo: "PR", Config: "sd"}, false, modeResult); err != nil {
		t.Fatalf("runOne with -sram 0: %v", err)
	}
	if !bytes.Equal(dflt.Bytes(), want) {
		t.Error("-sram 0 did not keep the configuration default")
	}
}

// TestRunSweepDeterministic checks the sweep contract: a multi-point run
// emits every point in dataset-major order and produces the same
// per-point bytes at one worker and many.
func TestRunSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	datasets := []string{"YT", "WK"}
	algos := []string{"PR", "BFS"}
	configs := []string{"hyve-opt", "sd"}
	sw := point.Sweep{Datasets: datasets, Algos: algos, Configs: configs, SRAMMB: 2}
	var serial, par, serialProg, parProg bytes.Buffer
	if err := runSweep(&serial, &serialProg, sw, false, modeText, -1); err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	if err := runSweep(&par, &parProg, sw, false, modeText, 8); err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	// With the summary line routed to the progress writer, stdout must be
	// byte-identical between serial and parallel sweeps.
	if got, want := par.String(), serial.String(); got != want {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	// Dataset-major emission order.
	out := serial.String()
	prev := -1
	for _, d := range datasets {
		for _, a := range algos {
			for _, c := range configs {
				head := "--- " + d + " " + a + " " + c + " ---"
				at := strings.Index(out, head)
				if at < 0 {
					t.Fatalf("missing point header %q", head)
				}
				if at < prev {
					t.Errorf("point %q emitted out of order", head)
				}
				prev = at
			}
		}
	}
	if !strings.Contains(serialProg.String(), "8 points:") {
		t.Errorf("sweep summary line missing from progress output:\n%s", serialProg.String())
	}
	if strings.Contains(out, "8 points:") {
		t.Errorf("sweep summary line leaked into stdout:\n%s", out)
	}
}

func TestRunSweepSinglePointUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	var single, direct bytes.Buffer
	sw, err := parseSweep("YT", "PR", "hyve-opt", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := runSweep(&single, io.Discard, sw, false, modeText, 8); err != nil {
		t.Fatalf("single-point sweep: %v", err)
	}
	if err := runOne(&direct, spec("YT", "PR", "hyve-opt"), false, modeText); err != nil {
		t.Fatalf("runOne: %v", err)
	}
	if single.String() != direct.String() {
		t.Errorf("single-point sweep output differs from direct runOne:\n--- sweep ---\n%s\n--- direct ---\n%s",
			single.String(), direct.String())
	}
}

func TestParseSweep(t *testing.T) {
	for _, tc := range []struct {
		dataset, config string
		sramMB          int64
		ok              bool
	}{
		{"YT,WK", "hyve,cpu-opt", 2, true},
		{"YT", "hyve", 0, true}, // 0 keeps the configuration default
		{",", "hyve", 2, false},
		{"YT", "nope", 2, false},
		{"YT", "hyve", -1, false},
		{"YT", "hyve", 1 << 43, false}, // MB count whose byte count overflows
	} {
		_, err := parseSweep(tc.dataset, "PR", tc.config, tc.sramMB)
		if (err == nil) != tc.ok {
			t.Errorf("parseSweep(%q, PR, %q, %d) error = %v, want ok=%v", tc.dataset, tc.config, tc.sramMB, err, tc.ok)
		}
	}
}

// TestEveryConfigReachesEveryConsumer walks the configuration registry
// through the three ways a point name arrives — hyve-sim's flags,
// hyve-serve's /point and the cluster's sim spec — and requires the
// same canonical bytes from each: a configuration added in one place
// shows up in every CLI and in the wire API.
func TestEveryConfigReachesEveryConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	sched := cache.New(cache.Config{})
	ts := httptest.NewServer(serve.New(serve.Config{Sched: sched, Rate: 1e6, Burst: 1 << 20}).Handler())
	defer ts.Close()
	for _, name := range point.Names() {
		sw, err := parseSweep("YT", "PR", name, 2)
		if err != nil {
			t.Errorf("hyve-sim rejects %s: %v", name, err)
			continue
		}
		var direct bytes.Buffer
		if err := runSweep(&direct, io.Discard, sw, false, modeResult, 1); err != nil {
			t.Fatalf("hyve-sim -result -config %s: %v", name, err)
		}

		body, err := json.Marshal(serve.PointRequest{Dataset: "YT", Algo: "PR", Config: name, SRAMMB: 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/point", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		served, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(served, direct.Bytes()) {
			t.Errorf("/point config %s: status %d, body differs from hyve-sim -result: %.120s", name, resp.StatusCode, served)
		}

		wire, err := jobs.NewSimSpec(sw)
		if err != nil {
			t.Fatalf("jobs.NewSimSpec rejects %s: %v", name, err)
		}
		job, err := jobs.Decode(wire, sched)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := job.Execute(context.Background(), 0)
		if err != nil {
			t.Fatalf("cluster point config %s: %v", name, err)
		}
		if !bytes.Equal(merged, direct.Bytes()) {
			t.Errorf("cluster point config %s differs from hyve-sim -result", name)
		}
	}
}
