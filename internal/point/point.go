// Package point is the one place a simulation point is named, indexed
// and run. A point is a (dataset, algorithm, configuration) coordinate
// plus an optional on-chip SRAM override; a sweep is the dataset-major
// cross product of three name lists. hyve-sim, hyve-trace and
// hyve-serve all resolve names here, so a configuration added to the
// registry shows up in every CLI and in the wire API, and a point run
// through Run yields the same canonical bytes wherever it runs.
//
// The analytic graphr/cpu baselines are not registered: they have no
// core.Config and no canonical result document, and only hyve-sim runs
// them.
package point

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
)

// configs is the registry of core configurations, in presentation order.
var configs = []struct {
	name string
	new  func() core.Config
}{
	{"hyve", core.HyVE},
	{"hyve-opt", core.HyVEOpt},
	{"sd", core.SRAMDRAM},
	{"dram", core.AccDRAM},
	{"reram", core.AccReRAM},
}

// Names returns the core configuration names in registry order.
func Names() []string {
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.name
	}
	return names
}

// Config returns the named core configuration at its defaults.
func Config(name string) (core.Config, error) {
	for _, c := range configs {
		if c.name == name {
			return c.new(), nil
		}
	}
	return core.Config{}, fmt.Errorf("unknown config %q (want %s)", name, strings.Join(Names(), ", "))
}

// maxSRAMMB is the largest SRAM override whose byte count fits an int64.
const maxSRAMMB = math.MaxInt64 >> 20

// CheckSRAM enforces the one SRAM-override rule: 0 keeps the
// configuration's default, 1..2^43-1 sets the per-PU on-chip vertex
// memory in MB, and anything else is an error.
func CheckSRAM(mb int64) error {
	if mb < 0 || mb > maxSRAMMB {
		return fmt.Errorf("SRAM override %d MB out of range (0 keeps the configuration default, at most %d)", mb, int64(maxSRAMMB))
	}
	return nil
}

// Spec names one simulation point.
type Spec struct {
	Dataset string
	Algo    string
	Config  string
	// SRAMMB overrides the per-PU on-chip vertex memory in MB for
	// configurations that have one; 0 keeps the configuration default.
	SRAMMB int64
}

// Parse checks that every name resolves and the SRAM override obeys
// CheckSRAM, without building the workload, and returns the spec with
// the dataset under its short name.
func (s Spec) Parse() (Spec, error) {
	d, _, err := s.lookup()
	if err == nil {
		_, err = s.config()
	}
	if err != nil {
		return Spec{}, err
	}
	s.Dataset = d.Name
	return s, nil
}

// Workload builds the spec's workload: the dataset instance (generated,
// or loaded from a prepared container) under the named program.
func (s Spec) Workload() (core.Workload, error) {
	d, p, err := s.lookup()
	if err != nil {
		return core.Workload{}, err
	}
	return core.WorkloadFor(d, p)
}

// Resolve builds the executable pair for the spec: the core
// configuration with the SRAM override applied, and the workload.
func (s Spec) Resolve() (core.Config, core.Workload, error) {
	cfg, err := s.config()
	if err != nil {
		return core.Config{}, core.Workload{}, err
	}
	w, err := s.Workload()
	if err != nil {
		return core.Config{}, core.Workload{}, err
	}
	return cfg, w, nil
}

// lookup resolves the dataset and algorithm names.
func (s Spec) lookup() (graph.Dataset, algo.Program, error) {
	d, err := graph.DatasetByName(s.Dataset)
	if err != nil {
		return graph.Dataset{}, nil, err
	}
	p, err := algo.ByName(s.Algo)
	return d, p, err
}

// config resolves the configuration name with the SRAM override applied.
func (s Spec) config() (core.Config, error) {
	cfg, err := Config(s.Config)
	if err != nil {
		return core.Config{}, err
	}
	if err := CheckSRAM(s.SRAMMB); err != nil {
		return core.Config{}, err
	}
	if cfg.UseOnChipSRAM && s.SRAMMB > 0 {
		cfg.SRAMBytes = s.SRAMMB << 20
	}
	return cfg, nil
}

// Run resolves a spec, submits it through sched, and returns the
// canonical hyve/result/v1 document (cache.EncodeResult) — the bytes
// hyve-sim -result prints and hyve-serve returns — with the digest the
// scheduler named the point by (cache.Scheduler.Document: zero under
// cache.Off, which digests nothing). A cached document is the
// scheduler's own slice and must not be modified.
func Run(ctx context.Context, sched *cache.Scheduler, s Spec) ([]byte, cache.Digest, error) {
	cfg, w, err := s.Resolve()
	if err != nil {
		return nil, cache.Digest{}, err
	}
	return sched.Document(ctx, cfg, w)
}

// Sweep is the cross product of three name lists under one SRAM
// override. Points are indexed dataset-major: point i is
// (Datasets[i/(A·C)], Algos[(i/C)%A], Configs[i%C]) for A algorithms
// and C configurations — hyve-sim's output order and the /sweep stream
// order. The JSON form is the body of a /sweep request
// (serve.SweepRequest embeds it).
type Sweep struct {
	Datasets []string `json:"datasets"`
	Algos    []string `json:"algos"`
	Configs  []string `json:"configs"`
	SRAMMB   int64    `json:"sram_mb"`
}

// Len is the number of points in the sweep.
func (s Sweep) Len() int { return len(s.Datasets) * len(s.Algos) * len(s.Configs) }

// At returns point i in dataset-major order.
func (s Sweep) At(i int) (Spec, error) {
	if n := s.Len(); i < 0 || i >= n {
		return Spec{}, fmt.Errorf("point %d outside sweep of %d", i, n)
	}
	a, c := len(s.Algos), len(s.Configs)
	return Spec{
		Dataset: s.Datasets[i/(a*c)],
		Algo:    s.Algos[i/c%a],
		Config:  s.Configs[i%c],
		SRAMMB:  s.SRAMMB,
	}, nil
}

// Specs parses every point of a non-empty sweep, in index order.
func (s Sweep) Specs() ([]Spec, error) {
	n := s.Len()
	if n == 0 {
		return nil, errors.New("a sweep needs at least one dataset, algorithm, and configuration")
	}
	specs := make([]Spec, n)
	for i := range specs {
		p, _ := s.At(i) // i < n: in range
		var err error
		if specs[i], err = p.Parse(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// SplitList parses a comma-separated list, dropping empty items so
// "YT," and "YT" mean the same thing.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
