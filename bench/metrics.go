package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on its last line;
// BENCHMARK.json gives each its direction and bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"rss_peak_mb", "MiB"},
}

// probeStages are the per-point stages the probe times; the two _self
// stages are derived (machine minus partition build, simulate minus
// functional run).
var probeStages = []string{
	"graph.workload", "core.machine", "core.simulate", "cache.encode",
	"partition.build", "algo.run", "core.assemble_self", "core.cost_self",
}

// perLayer are the metrics a traced run reports on its last line.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"graph.generate_s", "s"},
		{"graph.weights_s", "s"},
		{"graph.clone_digest_ms", "ms"},
	}
	for _, st := range probeStages {
		defs = append(defs, metricDef{st + "_s", "s"}, metricDef{st + ".share", "ratio"})
	}
	return append(defs,
		metricDef{"algo.medges_per_s", "Medge/s"},
		metricDef{"trace.stage_sum_ratio", "ratio"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"cache.mem_hits", "count"},
		metricDef{"cache.executed", "count"},
		metricDef{"cache.coalesced", "count"},
		metricDef{"process.heap_live_mb", "MiB"},
		metricDef{"tail.latency_ms_p98", "ms"},
	)
}()

// deriveMetrics turns a run's rounds into metrics: the end-to-end set
// always, the per-layer set when the rounds carry spans, and
// workload-specific diagnostics (error ratio, round wall time, serve
// latency by request class, time per experiment).
func deriveMetrics(pl *plan, rounds []*roundDoc, failed, attempted int, traced bool) map[string]metric {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var setups, rates, rss, heap, walls, lat []float64
	var hits, executed, coalesced []float64
	var lookups, memHits float64
	byClass := map[string][]float64{}
	var opSec, coveredSec float64
	probe := map[string]spanTotal{}
	for _, r := range rounds {
		setups = append(setups, r.SetupS)
		rates = append(rates, float64(len(r.LatencyMS))/r.WallS)
		walls = append(walls, r.WallS)
		rss = append(rss, r.RSSMB)
		heap = append(heap, r.HeapLiveMB)
		lat = append(lat, r.LatencyMS...)
		for i, l := range r.LatencyMS {
			if c := pl.ops[i].class; c != "" {
				byClass[c] = append(byClass[c], l)
			}
		}
		c := r.Cache
		hits = append(hits, float64(c.MemHits))
		executed = append(executed, float64(c.Executed))
		coalesced = append(coalesced, float64(c.Coalesced))
		memHits += float64(c.MemHits)
		lookups += float64(c.MemHits + c.DiskHits + c.Executed + c.Coalesced + c.Bypassed + c.Errors)
		if t := r.Trace; t != nil {
			opSec += t.OpS
			coveredSec += t.CoveredS
			for name, st := range t.Probe {
				sum := probe[name]
				sum.Sec += st.Sec
				sum.Edges += st.Edges
				sum.N += st.N
				probe[name] = sum
			}
		}
	}

	if pl.workload == "figures" {
		// A figures user waits for the whole -quick suite, and the
		// experiments in it differ in length by five orders of magnitude:
		// a percentile over them sits on a gap between two experiments and
		// jumps between runs. Its latency is the suite's, one per round.
		lat = lat[:0]
		for _, w := range walls {
			lat = append(lat, w*1000)
		}
	}
	set("setup_s", "s", median(setups))
	set("ops_per_s", "op/s", median(rates))
	set("latency_ms_p50", "ms", percentile(lat, 50))
	set("latency_ms_p90", "ms", percentile(lat, 90))
	set("rss_peak_mb", "MiB", median(rss))

	set("latency.samples", "count", float64(len(lat)))
	set("error_ratio", "ratio", float64(failed)/float64(attempted))
	set("wall_s", "s", median(walls))
	for class, xs := range byClass {
		if pl.workload == "figures" {
			set("experiments."+class+"_s", "s", median(xs)/1000)
		} else {
			set("serve."+class+"_ms_p50", "ms", median(xs))
		}
	}

	if !traced {
		return m
	}
	mean := func(name string) float64 { return probe[name].meanSec() }
	stage := map[string]float64{}
	for _, st := range probeStages {
		stage[st] = mean(st)
	}
	stage["core.assemble_self"] = stage["core.machine"] - stage["partition.build"]
	stage["core.cost_self"] = stage["core.simulate"] - stage["algo.run"]
	pointSec := mean("probe.point")
	for _, st := range probeStages {
		set(st+"_s", "s", stage[st])
		set(st+".share", "ratio", ratio(stage[st], pointSec))
	}
	set("graph.generate_s", "s", mean("graph.generate"))
	set("graph.weights_s", "s", mean("graph.weights"))
	set("graph.clone_digest_ms", "ms", mean("graph.clone_digest")*1000)
	set("algo.medges_per_s", "Medge/s", ratio(float64(probe["algo.run"].Edges)/1e6, probe["algo.run"].Sec))
	set("trace.stage_sum_ratio", "ratio", ratio(coveredSec, opSec))
	set("cache.hit_ratio", "ratio", ratio(memHits, lookups))
	set("cache.mem_hits", "count", median(hits))
	set("cache.executed", "count", median(executed))
	set("cache.coalesced", "count", median(coalesced))
	set("process.heap_live_mb", "MiB", median(heap))
	set("tail.latency_ms_p98", "ms", percentile(lat, 98))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// declared picks the metrics the last output line carries: the
// end-to-end set untraced, the per-layer set traced.
func declared(all map[string]metric, traced bool) map[string]metric {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = all[d.name]
	}
	return out
}
