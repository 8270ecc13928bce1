package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readResults loads every result document (*.json) in dir.
func readResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Env.Workload == "" {
			return nil, fmt.Errorf("%s: not a result document written by -out", p)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result documents", dir)
	}
	return out, nil
}

// verdict judges set b against set a for a metric whose worsening
// direction is better ("lower" or "higher") and whose allowed
// worsening is bound, a share of a's median.
func verdict(a, b []float64, better string, bound float64) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	spread := math.Max((qa3-qa1)/ma, (qb3-qb1)/mb)
	worse := (mb - ma) / ma // positive: b is worse
	if better == "higher" {
		worse = -worse
	}
	_, p := mannWhitney(a, b)
	significant := p < 0.05
	switch {
	case spread > bound:
		if allBetter(a, b, better) {
			return "better"
		}
		return "unresolved"
	case worse > bound && significant:
		return "worse"
	case worse < -bound && significant:
		return "better"
	case math.Abs(worse) > bound:
		return "unresolved"
	}
	return "same"
}

// allBetter reports whether every value of b is better than every
// value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compare prints, for each workload and metric, both sets' medians and
// quartiles, the Mann–Whitney U p-value and the verdict against the
// BENCHMARK.json bound; for an untraced set against a traced one, the
// tracing overhead instead of verdicts.
func compare(w io.Writer, dirA, dirB, benchmarkPath string) error {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range bf.PerLayer {
		better[m.Name] = m.Better
	}
	setA, err := readResults(dirA)
	if err != nil {
		return err
	}
	setB, err := readResults(dirB)
	if err != nil {
		return err
	}
	group := func(set []*result) map[string][]*result {
		g := map[string][]*result{}
		for _, r := range set {
			g[r.Env.Workload] = append(g[r.Env.Workload], r)
		}
		return g
	}
	ga, gb := group(setA), group(setB)
	for _, wl := range workloadNames {
		ra, rb := ga[wl], gb[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		tracedA, tracedB := ra[0].Env.Traced, rb[0].Env.Traced
		fmt.Fprintf(w, "%s: A %d runs (traced=%t), B %d runs (traced=%t)\n", wl, len(ra), tracedA, len(rb), tracedB)
		fmt.Fprintf(w, "  %-34s %-8s %24s %24s %8s %7s  %s\n", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "change", "p", "verdict")
		for _, name := range metricUnion(ra, rb) {
			a, unit := values(ra, name)
			b, _ := values(rb, name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			qa1, ma, qa3 := quartiles(a)
			qb1, mb, qb3 := quartiles(b)
			_, p := mannWhitney(a, b)
			v := "-"
			if bound, ok := bounds[name]; ok && tracedA == tracedB {
				v = verdict(a, b, better[name], bound)
			}
			fmt.Fprintf(w, "  %-34s %-8s %10.4g [%.4g %.4g] %10.4g [%.4g %.4g] %+7.1f%% %7.4f  %s\n",
				name, unit, ma, qa1, qa3, mb, qb1, qb3, 100*ratio(mb-ma, ma), p, v)
		}
		if !tracedA && tracedB {
			a, _ := values(ra, "ops_per_s")
			b, _ := values(rb, "ops_per_s")
			if len(a) > 0 && len(b) > 0 {
				fmt.Fprintf(w, "  tracing overhead: ops_per_s %.2f%% lower traced (%.4g → %.4g op/s)\n",
					100*(1-median(b)/median(a)), median(a), median(b))
			}
		}
	}
	return nil
}

// metricUnion lists the metrics either set reports, end-to-end first.
func metricUnion(a, b []*result) []string {
	seen := map[string]bool{}
	for _, set := range [][]*result{a, b} {
		for _, r := range set {
			for k := range r.Metrics {
				seen[k] = true
			}
		}
	}
	var names []string
	for _, d := range endToEnd {
		if seen[d.name] {
			names = append(names, d.name)
			delete(seen, d.name)
		}
	}
	rest := make([]string, 0, len(seen))
	for k := range seen {
		rest = append(rest, k)
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func values(set []*result, name string) ([]float64, string) {
	var xs []float64
	unit := ""
	for _, r := range set {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
			unit = m.Unit
		}
	}
	return xs, unit
}
