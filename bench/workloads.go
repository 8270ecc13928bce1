package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"sweep", "cold-start", "serve", "figures"}

// nproc bounds every worker pool, client pool and connection pool the
// benchmark creates.
var nproc = runtime.NumCPU()

// configs are the five accelerator configurations by their wire names
// (hyve-sim -config, the /point API).
var configs = map[string]func() core.Config{
	"hyve":     core.HyVE,
	"hyve-opt": core.HyVEOpt,
	"sd":       core.SRAMDRAM,
	"dram":     core.AccDRAM,
	"reram":    core.AccReRAM,
}

var configOrder = []string{"hyve", "hyve-opt", "sd", "dram", "reram"}

var algoOrder = []string{"PR", "BFS", "CC", "SSSP", "SpMV"}

// point is one (dataset, algorithm, configuration) simulation point.
type point struct {
	ds     graph.Dataset
	algo   string
	config string
	sramMB int64 // 0 keeps the configuration's SRAM size
}

func (p point) label() string {
	s := p.ds.Name + "/" + p.algo + "/" + p.config
	if p.sramMB > 0 {
		s += fmt.Sprintf("/sram%d", p.sramMB)
	}
	return s
}

func (p point) cfg() core.Config {
	cfg := configs[p.config]()
	if cfg.UseOnChipSRAM && p.sramMB > 0 {
		cfg.SRAMBytes = p.sramMB << 20
	}
	return cfg
}

func (p point) program() (algo.Program, error) { return algo.ByName(p.algo) }

// op is one timed operation of a round.
type op struct {
	label string
	// class groups ops for per-class latency (serve: hit, weighted_hit,
	// miss; figures: the experiment id).
	class string
	pt    point
	exp   experiments.Experiment
	// check marks ops whose output is deterministic and therefore
	// compared across rounds and against the golden hashes.
	check bool
}

// plan is everything a round does, derived from the workload and seed
// alone: the same seed gives the same plan in every round and process.
type plan struct {
	workload string
	seed     uint64
	datasets []graph.Dataset // loaded during set-up
	warm     []point         // serve: requested during set-up
	ops      []op
	probe    []point // distinct points of the stage probe
	workers  int
	shuffle  bool // run the ops in a per-round seeded order
	// seededOutputs marks plans whose outputs depend on the seed (serve's
	// never-seen points); the others produce the same bytes at every seed.
	seededOutputs bool
}

// grid is the cross product of datasets, algorithms and configurations,
// dataset-major like hyve-sim sweeps.
func grid(ds []graph.Dataset, algos, cfgs []string) []point {
	var pts []point
	for _, d := range ds {
		for _, a := range algos {
			for _, c := range cfgs {
				pts = append(pts, point{ds: d, algo: a, config: c})
			}
		}
	}
	return pts
}

// datasetsOf lists the distinct datasets of pts in first-use order.
func datasetsOf(pts []point) []graph.Dataset {
	var out []graph.Dataset
	seen := map[string]bool{}
	for _, p := range pts {
		if !seen[p.ds.Name] {
			seen[p.ds.Name] = true
			out = append(out, p.ds)
		}
	}
	return out
}

// pointsPlan is the plan of sweep or cold-start: one op per point. With
// preload the set-up loads the points' datasets; cold-start loads
// nothing, as a fresh process has nothing loaded before its first point.
func pointsPlan(workload string, seed uint64, pts []point, preload bool) *plan {
	ops := make([]op, len(pts))
	for i, p := range pts {
		ops[i] = op{label: p.label(), pt: p, check: true}
	}
	pl := &plan{workload: workload, seed: seed, ops: ops, probe: pts, workers: nproc, shuffle: true}
	if preload {
		pl.datasets = datasetsOf(pts)
	}
	return pl
}

// servePlan builds one round of /point requests in the issue's assumed
// traffic mix (there is no record of real hyve-serve use): 80% repeats
// of the hot points and 20% never-seen points. Every hot point is
// repeated twice. The never-seen points are one per dataset of missFrom
// and algorithm; the seed draws each one's configuration (hyve, hyve-opt
// or sd) and its sram_mb from 1–64 without the default 2, which would
// repeat a hot point. With the 50 hot points that is 100 repeats, 40 of
// them weighted (SSSP/SpMV), and 25 never-seen points.
func servePlan(seed uint64, hot []point, missFrom []graph.Dataset) *plan {
	rng := rand.New(rand.NewSource(int64(seed)))
	var ops, misses []op
	for _, d := range missFrom {
		for _, a := range algoOrder {
			p := point{ds: d, algo: a, config: configOrder[rng.Intn(3)], sramMB: 1 + rng.Int63n(63)}
			if p.sramMB >= 2 {
				p.sramMB++
			}
			misses = append(misses, op{label: p.label(), class: "miss", pt: p, check: true})
		}
	}
	for _, p := range hot {
		o := op{label: p.label(), class: "hit", pt: p, check: true}
		if weighted(p.algo) {
			o.class = "weighted_hit"
		}
		ops = append(ops, o, o)
	}
	probe := append([]point(nil), hot...)
	for _, o := range misses {
		probe = append(probe, o.pt)
	}
	return &plan{workload: "serve", seed: seed, datasets: datasetsOf(hot), warm: hot, ops: append(ops, misses...),
		probe: probe, workers: nproc, shuffle: true, seededOutputs: true}
}

// weighted reports whether the named program needs edge weights.
func weighted(name string) bool {
	p, err := algo.ByName(name)
	return err == nil && p.NeedsWeights()
}

func figuresPlan(seed uint64, exps []experiments.Experiment, ds []graph.Dataset) *plan {
	ops := make([]op, len(exps))
	for i, e := range exps {
		ops[i] = op{label: e.ID, class: e.ID, exp: e, check: !e.Measured}
	}
	return &plan{workload: "figures", seed: seed, datasets: ds, ops: ops,
		probe: grid(ds, algoOrder, []string{"hyve-opt"}), workers: 1}
}

// planFor is the full-size plan of a workload. Every workload runs on
// the paper's five graphs generated with their published seeds: a
// reseeded graph changes the iteration counts of BFS, CC and SSSP, and
// with them the work of a run, by more than the changes the benchmark
// exists to see. The seed drives the order ops run in and serve's
// never-seen points.
func planFor(workload string, seed uint64) (*plan, error) {
	ds := graph.Datasets
	switch workload {
	case "sweep":
		return pointsPlan(workload, seed, grid(ds, algoOrder, configOrder), true), nil
	case "cold-start":
		return pointsPlan(workload, seed, grid(ds, algoOrder, []string{"hyve-opt"}), false), nil
	case "serve":
		return servePlan(seed, grid(ds, algoOrder, []string{"hyve-opt", "sd"}), ds), nil
	case "figures":
		return figuresPlan(seed, experiments.All(), ds[:2]), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// order is the sequence ops start in during round r.
func (pl *plan) order(round int) []int {
	idx := make([]int, len(pl.ops))
	for i := range idx {
		idx[i] = i
	}
	if pl.shuffle {
		rng := rand.New(rand.NewSource(int64(pl.seed) ^ int64(round+1)*0x5851F42D))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return idx
}

// runner executes one round's timed ops after set-up.
type runner interface {
	// op runs timed op i and returns its output; stage spans nest under
	// the span ctx carries.
	op(ctx context.Context, i int) ([]byte, error)
	// verify checks the round's outputs after the timed region and
	// returns a failure message per failing op index.
	verify(outs [][]byte) map[int]string
	// sched is the result scheduler the ops submit through, nil when
	// they run without one.
	sched() *cache.Scheduler
	close()
}

// setup prepares round r: loads the plan's datasets and, for serve,
// starts the service and warms its hot points.
func setup(ctx context.Context, pl *plan, round int) (runner, error) {
	for _, d := range pl.datasets {
		if err := inSpan(ctx, "graph.load", func(context.Context) error { _, err := d.Load(); return err }); err != nil {
			return nil, fmt.Errorf("loading %s: %w", d.Name, err)
		}
	}
	switch pl.workload {
	case "sweep":
		return &sweepRunner{pl: pl}, nil
	case "cold-start":
		// Every round must reproduce round 0's bytes, so checking round 0
		// against the reference checks them all.
		return &coldStartRunner{pl: pl, reference: round == 0}, nil
	case "serve":
		return newServeRunner(ctx, pl)
	case "figures":
		return &figuresRunner{pl: pl, opt: experiments.Options{Quick: true, Parallel: nproc,
			Cache: cache.Off(), Datasets: pl.datasets}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", pl.workload)
}

// simulate runs one point with the result cache off, as
// cache.Off().SimulateCtx does (core.Simulate: assemble the machine,
// then run it), with a span around each of the two calls. The
// simulator's phase spans nest under core.simulate.
func simulate(ctx context.Context, cfg core.Config, w core.Workload) (*core.Machine, *core.Result, error) {
	var m *core.Machine
	if err := inSpan(ctx, "core.machine", func(context.Context) (err error) {
		m, err = core.NewMachine(cfg, w)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var res *core.Result
	err := inSpan(ctx, "core.simulate", func(ctx context.Context) (err error) {
		res, err = m.SimulateTraced(obs.SpanFromContext(ctx))
		return err
	})
	return m, res, err
}

func encode(ctx context.Context, res *core.Result) ([]byte, error) {
	var body []byte
	err := inSpan(ctx, "cache.encode", func(context.Context) (err error) {
		body, err = cache.EncodeResult(res)
		return err
	})
	return body, err
}

// simulateEncode simulates p on w and encodes the result document.
func simulateEncode(ctx context.Context, p point, w core.Workload) ([]byte, error) {
	_, res, err := simulate(ctx, p.cfg(), w)
	if err != nil {
		return nil, err
	}
	return encode(ctx, res)
}

// workloadFor is core.WorkloadFor under a graph.workload span.
func workloadFor(ctx context.Context, p point) (core.Workload, error) {
	prog, err := p.program()
	if err != nil {
		return core.Workload{}, err
	}
	var w core.Workload
	err = inSpan(ctx, "graph.workload", func(context.Context) (err error) {
		w, err = core.WorkloadFor(p.ds, prog)
		return err
	})
	return w, err
}

// --- sweep: the hyve-sim -result path for every point ---------------------

type sweepRunner struct{ pl *plan }

func (r *sweepRunner) op(ctx context.Context, i int) ([]byte, error) {
	p := r.pl.ops[i].pt
	w, err := workloadFor(ctx, p)
	if err != nil {
		return nil, err
	}
	return simulateEncode(ctx, p, w)
}

func (r *sweepRunner) verify([][]byte) map[int]string { return nil }
func (r *sweepRunner) sched() *cache.Scheduler        { return nil }
func (r *sweepRunner) close()                         {}

// --- cold-start: what a fresh process pays for one point ------------------

type coldStartRunner struct {
	pl        *plan
	reference bool // compare the outputs with the core.WorkloadFor path
}

// coldWorkload generates the point's graph afresh (never the memoized
// Dataset.Load) and attaches weights exactly as core.WorkloadFor does.
func coldWorkload(ctx context.Context, p point) (core.Workload, error) {
	prog, err := p.program()
	if err != nil {
		return core.Workload{}, err
	}
	var g *graph.Graph
	if err := inSpan(ctx, "graph.generate", func(context.Context) (err error) {
		g, err = p.ds.Generate()
		return err
	}); err != nil {
		return core.Workload{}, err
	}
	if prog.NeedsWeights() && !g.Weighted() {
		_ = inSpan(ctx, "graph.weights", func(context.Context) error {
			graph.AttachUniformWeights(g, 8, p.ds.Seed^0x5EED)
			return nil
		})
	}
	return core.Workload{DatasetName: p.ds.Name, Graph: g,
		FullVertices: p.ds.FullVertices, FullEdges: p.ds.FullEdges, Program: prog}, nil
}

func (r *coldStartRunner) op(ctx context.Context, i int) ([]byte, error) {
	p := r.pl.ops[i].pt
	w, err := coldWorkload(ctx, p)
	if err != nil {
		return nil, err
	}
	return simulateEncode(ctx, p, w)
}

// verify re-runs every point through core.WorkloadFor, which loads the
// datasets: a freshly generated point must give the same bytes.
func (r *coldStartRunner) verify(outs [][]byte) map[int]string {
	fails := map[int]string{}
	if !r.reference {
		return fails
	}
	want := make([][]byte, len(outs))
	errs := make([]error, len(outs))
	ref := &sweepRunner{pl: r.pl}
	closedLoop(nproc, r.pl.order(0), func(i int) {
		want[i], errs[i] = ref.op(context.Background(), i)
	})
	for i := range outs {
		switch {
		case outs[i] == nil:
		case errs[i] != nil:
			fails[i] = "reference run: " + errs[i].Error()
		case !bytes.Equal(outs[i], want[i]):
			fails[i] = "generated graph gives other bytes than core.WorkloadFor"
		}
	}
	return fails
}

func (r *coldStartRunner) sched() *cache.Scheduler { return nil }
func (r *coldStartRunner) close()                  {}

// --- serve: /point requests against an in-process service -----------------

type serveRunner struct {
	pl     *plan
	s      *cache.Scheduler
	ts     *httptest.Server
	client *http.Client
	warm   map[string][]byte // hot point label → first response
}

func newServeRunner(ctx context.Context, pl *plan) (*serveRunner, error) {
	r := &serveRunner{pl: pl, s: cache.New(cache.Config{}), warm: map[string][]byte{}}
	// The rate limit is lifted on purpose: at the service default a
	// closed loop of nproc clients mostly measures 429 rejections.
	srv := serve.New(serve.Config{Sched: r.s, Workers: nproc, Rate: 1e6, Burst: 1e6})
	r.ts = httptest.NewServer(srv.Handler())
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	bodies := make([][]byte, len(pl.warm))
	errs := make([]error, len(pl.warm))
	order := make([]int, len(pl.warm))
	for i := range order {
		order[i] = i
	}
	closedLoop(nproc, order, func(i int) {
		bodies[i], errs[i] = r.request(ctx, pl.warm[i])
	})
	for i, err := range errs {
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warming %s: %w", pl.warm[i].label(), err)
		}
		r.warm[pl.warm[i].label()] = bodies[i]
	}
	return r, nil
}

func (r *serveRunner) request(ctx context.Context, p point) ([]byte, error) {
	req, err := json.Marshal(serve.PointRequest{Dataset: p.ds.Name, Algo: p.algo, Config: p.config, SRAMMB: p.sramMB})
	if err != nil {
		return nil, err
	}
	var body []byte
	err = inSpan(ctx, "serve.request", func(context.Context) error {
		resp, err := r.client.Post(r.ts.URL+"/point", "application/json", bytes.NewReader(req))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		return nil
	})
	return body, err
}

func (r *serveRunner) op(ctx context.Context, i int) ([]byte, error) {
	return r.request(ctx, r.pl.ops[i].pt)
}

// verify checks that every repeat of a hot point returned the bytes of
// that point's first response.
func (r *serveRunner) verify(outs [][]byte) map[int]string {
	fails := map[int]string{}
	for i, o := range r.pl.ops {
		if first, ok := r.warm[o.label]; ok && outs[i] != nil && !bytes.Equal(outs[i], first) {
			fails[i] = "repeat response differs from the first response"
		}
	}
	return fails
}

func (r *serveRunner) sched() *cache.Scheduler { return r.s }

func (r *serveRunner) close() {
	r.ts.Close()
	r.client.CloseIdleConnections()
}

// --- figures: every paper experiment, -quick --------------------------------

type figuresRunner struct {
	pl  *plan
	opt experiments.Options
}

func (r *figuresRunner) op(ctx context.Context, i int) ([]byte, error) {
	var buf bytes.Buffer
	err := inSpan(ctx, "experiments.run", func(context.Context) error {
		return r.pl.ops[i].exp.Run(&buf, r.opt)
	})
	return buf.Bytes(), err
}

func (r *figuresRunner) verify([][]byte) map[int]string { return nil }
func (r *figuresRunner) sched() *cache.Scheduler        { return r.opt.Cache }
func (r *figuresRunner) close()                         {}
