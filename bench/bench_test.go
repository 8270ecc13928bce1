package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
)

func youtube(t *testing.T) graph.Dataset {
	t.Helper()
	d, err := graph.DatasetByName("YT")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func experiment(t *testing.T, id string) experiments.Experiment {
	t.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWorkloadsEmitDeclaredMetrics drives each workload over a
// two-point list, untraced and traced, and checks that the last output
// line carries exactly the metrics BENCHMARK.json declares for that
// mode, each with its declared unit, and that every output check passes.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}

	const seed = 1
	yt := youtube(t)
	plans := map[string]func() *plan{
		"sweep": func() *plan {
			return pointsPlan("sweep", seed, []point{{ds: yt, algo: "PR", config: "hyve"}, {ds: yt, algo: "SSSP", config: "hyve-opt"}}, true)
		},
		"cold-start": func() *plan {
			return pointsPlan("cold-start", seed, []point{{ds: yt, algo: "BFS", config: "hyve-opt"}, {ds: yt, algo: "SpMV", config: "hyve-opt"}}, false)
		},
		"serve": func() *plan {
			return servePlan(seed, []point{{ds: yt, algo: "PR", config: "hyve-opt"}, {ds: yt, algo: "SSSP", config: "sd"}},
				[]graph.Dataset{yt})
		},
		"figures": func() *plan {
			return figuresPlan(seed, []experiments.Experiment{experiment(t, "table3"), experiment(t, "fig9")}, []graph.Dataset{yt})
		},
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			pl := plans[name]()
			doc, err := runRound(pl, 0, time.Now(), traced, traced, nil)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			res := summarize(pl, []*roundDoc{doc}, traced, nil)
			if !res.Correct || res.Attempted != len(pl.ops) {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failures=%v", name, traced, res.Correct, res.Attempted, res.Failures)
			}
			got := declared(res.Metrics, traced)
			for n, unit := range want[traced] {
				m, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s not measured", name, traced, n)
				case m.Unit != unit:
					t.Errorf("%s traced=%t: %s unit %q, BENCHMARK.json says %q", name, traced, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%t: %s = %v", name, traced, n, m.Value)
				}
			}
			for n := range got {
				if _, ok := want[traced][n]; !ok {
					t.Errorf("%s traced=%t: last line carries undeclared metric %s", name, traced, n)
				}
			}
			for _, n := range []string{"setup_s", "ops_per_s", "latency_ms_p50", "rss_peak_mb"} {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s traced=%t: %s = %v, want > 0", name, traced, n, res.Metrics[n].Value)
				}
			}
		}
	}
}

// TestColdStartMatchesWorkloadFor pins the cold-start assembly — a fresh
// Generate plus weights attached by hand — to core.WorkloadFor's bytes.
func TestColdStartMatchesWorkloadFor(t *testing.T) {
	p := point{ds: youtube(t), algo: "SSSP", config: "hyve-opt"}
	ctx := context.Background()
	cold, err := coldWorkload(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloadFor(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if graph.ContentDigest(cold.Graph) != graph.ContentDigest(ref.Graph) {
		t.Fatal("generated and weighted graph differs from core.WorkloadFor's")
	}
	var docs [2][]byte
	for i, w := range []core.Workload{cold, ref} {
		_, res, err := simulate(ctx, p.cfg(), w)
		if err != nil {
			t.Fatal(err)
		}
		if docs[i], err = cache.EncodeResult(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("cold-start result bytes differ from the core.WorkloadFor path")
	}
}

func TestMannWhitneyTextbook(t *testing.T) {
	for _, tc := range []struct {
		name string
		x, y []float64
		u, p float64
	}{
		// Complete separation, 5 vs 5: U = 0 and the two-sided exact
		// p-value is 2 / C(10,5) = 2/252.
		{"separated", []float64{1, 2, 3, 4, 5}, []float64{6, 7, 8, 9, 10}, 0, 2.0 / 252},
		// The SciPy documentation's example (male vs female scores):
		// U = 17, exact two-sided p = 0.1111.
		{"scipy", []float64{19, 22, 16, 29, 24}, []float64{20, 11, 17, 12}, 17, 0.11111111},
		// Ties force the normal approximation. Midranks 3, 10.5, 18 give
		// R1 = 67.5, U = 12.5; σ² = 100/12·(21 − 1230/380) = 148.0263;
		// z = (|12.5 − 50| − 0.5)/σ = 3.04111, p = erfc(z/√2).
		{"ties", []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 2}, []float64{2, 2, 2, 2, 2, 3, 3, 3, 3, 3}, 12.5, 0.00235707},
		// Identical samples: U at its mean, p = 1.
		{"identical", []float64{1, 2, 3}, []float64{1, 2, 3}, 4.5, 1},
	} {
		u, p := mannWhitney(tc.x, tc.y)
		if u != tc.u || math.Abs(p-tc.p) > 1e-6 {
			t.Errorf("%s: U=%v p=%.8f, want U=%v p=%.8f", tc.name, u, p, tc.u, tc.p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestSelfTimeAndShares checks the span accounting on synthetic spans:
// overlapping children count once, simulated-time spans do not count,
// and the stage, self and share metrics follow from the probe spans.
func TestSelfTimeAndShares(t *testing.T) {
	span := func(id, parent uint64, name string, startMS, endMS float64, attrs ...string) obs.TraceSpan {
		return obs.TraceSpan{ID: id, Parent: parent, Name: name, Cat: "wall",
			StartUS: startMS * 1000, DurUS: (endMS - startMS) * 1000, Attrs: attrPairs(attrs...)}
	}
	spans := []obs.TraceSpan{
		span(1, 0, "timed", 0, 100),
		span(2, 1, "op", 0, 100),
		span(3, 2, "a", 10, 40),
		span(4, 2, "b", 30, 60),
		span(5, 2, "c", 70, 80),
		{ID: 6, Parent: 5, Name: "process", Cat: "sim", StartUS: 0, DurUS: 5e6},
		span(7, 0, "setup", 0, 50),
		span(8, 7, "op", 0, 50),
		span(9, 0, "probe", 100, 300),
		span(10, 9, "probe.point", 100, 200),
		span(11, 10, "graph.workload", 100, 110),
		span(12, 10, "core.machine", 110, 130),
		span(13, 10, "core.simulate", 130, 190),
		span(14, 10, "cache.encode", 190, 195),
		span(15, 9, "probe.side", 200, 265),
		span(16, 15, "partition.build", 200, 215),
		span(17, 15, "algo.run", 215, 265, "edges", "5000000"),
	}
	st := summarizeSpans(spans)
	if math.Abs(st.OpS-0.100) > 1e-12 || math.Abs(st.CoveredS-0.060) > 1e-12 {
		t.Fatalf("timed op %v s, children cover %v s; want 0.100 and 0.060", st.OpS, st.CoveredS)
	}
	pl := &plan{workload: "sweep", ops: []op{{label: "x"}}}
	doc := &roundDoc{LatencyMS: []float64{100}, WallS: 0.1, Items: []string{""}, Trace: &st}
	m := deriveMetrics(pl, []*roundDoc{doc}, 0, 1, true)
	for name, want := range map[string]float64{
		"core.machine_s":           0.020,
		"core.machine.share":       0.2,
		"core.simulate.share":      0.6,
		"core.assemble_self_s":     0.005,
		"core.assemble_self.share": 0.05,
		"core.cost_self_s":         0.010,
		"core.cost_self.share":     0.1,
		"algo.run.share":           0.5,
		"algo.medges_per_s":        100,
		"trace.stage_sum_ratio":    0.6,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func attrPairs(kv ...string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// TestSummarizeCountsCheckFailures checks that a round disagreeing with
// round 0 and a golden mismatch each count as failures.
func TestSummarizeCountsCheckFailures(t *testing.T) {
	pl := &plan{workload: "sweep", ops: []op{{label: "a", check: true}, {label: "b", check: true}}}
	round := func(r int, items ...string) *roundDoc {
		return &roundDoc{Round: r, LatencyMS: []float64{1, 1}, WallS: 1, Items: items}
	}
	ok := summarize(pl, []*roundDoc{round(0, "x", "y"), round(1, "x", "y")}, false, nil)
	if !ok.Correct || ok.Failed != 0 || ok.Attempted != 4 {
		t.Fatalf("identical rounds: correct=%t failed=%d attempted=%d", ok.Correct, ok.Failed, ok.Attempted)
	}
	bad := summarize(pl, []*roundDoc{round(0, "x", "y"), round(1, "x", "z")},
		false, map[string]string{"sweep": "not-the-hash"})
	if bad.Correct || bad.Failed != 2 {
		t.Fatalf("differing round + golden mismatch: correct=%t failed=%d, want 2 failures: %v",
			bad.Correct, bad.Failed, bad.Failures)
	}
	if got := bad.Metrics["error_ratio"].Value; got != 0.5 {
		t.Fatalf("error_ratio %v, want 0.5", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 102, 98, 100}, "lower", "same"},
		{"worse", []float64{130, 131, 129, 130, 132, 128, 130}, "lower", "worse"},
		{"better", []float64{130, 131, 129, 130, 132, 128, 130}, "higher", "better"},
		{"unresolved", []float64{60, 140, 100, 70, 130, 90, 110}, "lower", "unresolved"},
	} {
		if got := verdict(base, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestServePlanMix checks the request mix: 80% repeats of the 50 hot
// points (each twice, 40 of them weighted) and 20% never-seen points,
// one per dataset and algorithm, none repeating a hot point; the same
// seed gives the same sequence.
func TestServePlanMix(t *testing.T) {
	pl, err := planFor("serve", 7)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	hot := map[string]bool{}
	for _, p := range pl.warm {
		hot[p.label()] = true
	}
	misses := map[string]bool{}
	for _, o := range pl.ops {
		count[o.class]++
		if o.class != "miss" {
			continue
		}
		key := o.pt.ds.Name + "/" + o.pt.algo
		if misses[key] || hot[o.label] || o.pt.cfg().SRAMBytes == configs[o.pt.config]().SRAMBytes {
			t.Fatalf("never-seen point %s repeats another request", o.label)
		}
		if o.pt.sramMB < 1 || o.pt.sramMB > 64 {
			t.Fatalf("never-seen point %s: sram_mb outside 1-64", o.label)
		}
		misses[key] = true
	}
	if count["hit"] != 60 || count["weighted_hit"] != 40 || count["miss"] != 25 {
		t.Fatalf("mix %v, want 60 hits, 40 weighted hits, 25 never-seen", count)
	}
	again, _ := planFor("serve", 7)
	for i := range pl.ops {
		if pl.ops[i].label != again.ops[i].label {
			t.Fatal("same seed gave another request sequence")
		}
	}
}
