// Package check is the differential-conformance harness: it draws
// randomized-but-seeded (dataset, algorithm, configuration) points and
// holds the repository's independent models of the same machine against
// each other — the Algorithm 2 cost simulator, the address-exact
// controller trace, the analytic Eq. 1–16 model, the GraphR cost model
// and its functional crossbar emulation, and the GAS engines against
// their textbook references. Each invariant lives as an exported
// CheckInvariants-style hook next to the package it constrains; this
// package only generates points and drives the hooks.
package check

import (
	"fmt"
	"os"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/graph"
)

// Point is one randomly drawn conformance test point. Every field
// derives deterministically from Seed, so a failure report's seed is a
// complete reproduction recipe.
type Point struct {
	Seed uint64
	// GraphDesc names the drawn topology ("rmat-v612-e2448").
	GraphDesc string
	Graph     *graph.Graph
	Prog      algo.Program
	Cfg       core.Config
	Workload  core.Workload

	// tmp is the directory the point's invariants make their own
	// directories in; "" means os.TempDir.
	tmp string

	machine    *core.Machine
	machineErr error
	flat       *algo.Result
	flatErr    error
}

// tempDir makes a fresh directory for an invariant's files. Inside a
// sweep it lies in the sweep's directory, which the sweep removes when
// it returns, so the directory of a point abandoned at its timeout goes
// with it.
func (p *Point) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(p.tmp, pattern)
}

// Machine memoizes the assembled simulator of the point: the cost run
// and the blocked functional run share its partition, and the grid is
// built once, by the first edge walk.
func (p *Point) Machine() (*core.Machine, error) {
	if p.machine == nil && p.machineErr == nil {
		p.machine, p.machineErr = core.NewMachine(p.Cfg, p.Workload)
	}
	return p.machine, p.machineErr
}

// Sim memoizes the cost-model simulation of the point: several
// invariants interrogate the same run, and simulating (which includes a
// functional execution to derive the iteration count) dominates a
// point's cost.
func (p *Point) Sim() (*core.Result, error) {
	m, err := p.Machine()
	if err != nil {
		return nil, err
	}
	return m.SimulateTraced(nil)
}

// Blocked memoizes the blocked (Algorithm 2 schedule) functional run of
// the point, on the same machine — and therefore the same grid — as Sim.
func (p *Point) Blocked() (*algo.Result, error) {
	m, err := p.Machine()
	if err != nil {
		return nil, err
	}
	return m.RunFunctional()
}

// Flat memoizes the flat (edge-order) functional run of the program.
func (p *Point) Flat() (*algo.Result, error) {
	if p.flat == nil && p.flatErr == nil {
		p.flat, p.flatErr = algo.Run(p.Prog, p.Graph)
	}
	return p.flat, p.flatErr
}

// String identifies the point in failure reports.
func (p *Point) String() string {
	return fmt.Sprintf("seed=%d %s/%s/%s", p.Seed, p.GraphDesc, p.Prog.Name(), p.Cfg.Name)
}

// NewPoint draws the point for a seed: a topology from the generator
// zoo, one of the five paper programs, and one of the five Fig. 16
// machine configurations with randomized PU count, SRAM capacity, and
// gate predictiveness.
func NewPoint(seed uint64) (*Point, error) {
	rng := graph.NewRNG(seed)
	nv := 64 + rng.Intn(1025)
	deg := 2 + rng.Intn(8)
	ne := nv * deg

	var g *graph.Graph
	var desc string
	var err error
	switch rng.Intn(3) {
	case 0:
		g, err = graph.GenerateRMAT(nv, ne, graph.DefaultRMAT, seed^0xA5A5)
		desc = fmt.Sprintf("rmat-v%d-e%d", nv, ne)
	case 1:
		g, err = graph.GenerateUniform(nv, ne, seed^0x5A5A)
		desc = fmt.Sprintf("uniform-v%d-e%d", nv, ne)
	default:
		g, err = graph.GenerateChain(nv)
		desc = fmt.Sprintf("chain-v%d", nv)
	}
	if err != nil {
		return nil, fmt.Errorf("check: seed %d: generating %s: %w", seed, desc, err)
	}

	progs := algo.All()
	prog := progs[rng.Intn(len(progs))]
	if prog.NeedsWeights() && !g.Weighted() {
		graph.AttachUniformWeights(g, 8, seed^0x5EED)
	}

	cfgs := core.Fig16Configs()
	cfg := cfgs[rng.Intn(len(cfgs))]
	cfg.NumPUs = []int{2, 4, 8}[rng.Intn(3)]
	if cfg.UseOnChipSRAM {
		// Small sections force interesting P (many intervals per PU).
		cfg.SRAMBytes = 1024 << rng.Intn(5)
	}
	if cfg.PowerGating {
		cfg.Gate.Predictive = rng.Intn(2) == 0
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("check: seed %d: drawn config invalid: %w", seed, err)
	}

	return &Point{
		Seed:      seed,
		GraphDesc: desc,
		Graph:     g,
		Prog:      prog,
		Cfg:       cfg,
		Workload:  core.Workload{DatasetName: desc, Graph: g, Program: prog},
	}, nil
}
