// Package experiments regenerates every table and figure of the paper's
// evaluation (§6 measured data and §7): one runner per artifact, each
// printing the same rows/series the paper reports. The cmd/hyve-bench
// binary and the repository's bench_test.go drive these runners; the
// package tests assert the paper's qualitative shapes on every one.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options tunes a run.
type Options struct {
	// Quick restricts datasets and sweep sizes so the full suite runs in
	// seconds (used by tests); the default exercises all five datasets.
	Quick bool
	// Datasets overrides the dataset list (defaults to graph.Datasets,
	// or its first two under Quick).
	Datasets []graph.Dataset
	// Parallel is the worker count for the independent simulation
	// points inside each runner: 1 (or negative) runs them inline, 0
	// uses GOMAXPROCS. Results are collected into index-addressed
	// slices before table emission, so output is byte-identical at any
	// worker count.
	Parallel int
	// Artifact, when non-nil, collects a machine-readable mirror of the
	// run: every table the runner writes to w is also appended here, and
	// runners record their headline numbers as named metrics. Drivers
	// build one with NewRunArtifact and serialize it after Run returns.
	Artifact *obs.Artifact
	// Cache is the scheduler every simulation point is submitted
	// through, so identical points across experiments (and, with a
	// disk-backed scheduler, across runs) execute exactly once. Nil
	// executes every point, as cache.Off() does. Results a runner
	// receives may be shared with other runners and must be treated as
	// read-only.
	Cache *cache.Scheduler
	// Ctx, when non-nil, carries the driver's span context: simulation
	// points submitted through the run inherit it, so point spans nest
	// under the driver's run/experiment spans when tracing is enabled
	// (see obs.StartSpan). It does not cancel anything — executions run
	// to completion — and is deliberately excluded from OptionsDigest.
	Ctx context.Context
}

// simulate submits one simulation point through the run's scheduler —
// the single path every runner's core points take, which is what makes
// "identical points execute exactly once" a property of the suite
// rather than of each runner.
func (o Options) simulate(cfg core.Config, wl core.Workload) (*core.Result, error) {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return o.Cache.SimulateCtx(ctx, cfg, wl)
}

// NewRunArtifact builds the artifact shell for one experiment run,
// pinning the resolved dataset list and the options digest into the
// manifest. Attach it via Options.Artifact before calling e.Run.
func NewRunArtifact(e Experiment, o Options) *obs.Artifact {
	m := obs.Manifest{Quick: o.Quick, Digest: OptionsDigest(e, o)}
	for _, d := range o.datasets() {
		m.Datasets = append(m.Datasets, obs.DatasetRef{
			Name:         d.Name,
			Long:         d.Long,
			Scale:        d.Scale,
			Seed:         d.Seed,
			FullVertices: d.FullVertices,
			FullEdges:    d.FullEdges,
		})
	}
	return obs.NewArtifact(e.ID, e.Title, m)
}

// OptionsDigest is the canonical provenance digest of one experiment
// run: the experiment id and its method revision (when nonzero), the
// sweep mode, every resolved dataset instance (name, scale divisor,
// generator seed, full-scale sizes), and the artifact and simulator
// schema versions. It deliberately excludes Options.Parallel
// (artifacts are byte-identical at any worker count) and the attached
// artifact/cache. Resumable drivers store it in the
// artifact manifest and rerun on mismatch: changing -scale, -seed, or
// -quick between runs changes the digest, so a -resume can no longer
// silently keep results from a different configuration.
func OptionsDigest(e Experiment, o Options) string {
	h := cache.NewHasher()
	h.Str("schema", obs.ArtifactSchema)
	h.Str("sim", core.SimSchema)
	h.Str("experiment", e.ID)
	if e.Revision != 0 {
		h.I64("revision", int64(e.Revision))
	}
	h.Bool("quick", o.Quick)
	for _, d := range o.datasets() {
		h.Str("ds.name", d.Name)
		h.Str("ds.long", d.Long)
		h.I64("ds.scale", int64(d.Scale))
		h.U64("ds.seed", d.Seed)
		h.I64("ds.full_v", d.FullVertices)
		h.I64("ds.full_e", d.FullEdges)
	}
	return h.Sum().String()
}

// writeTable renders t to w and mirrors it, under name, into the run's
// artifact when one is attached. Every runner emits its tables through
// this so text and JSON can never drift.
func (o Options) writeTable(w io.Writer, name string, t *table) error {
	if o.Artifact != nil {
		o.Artifact.AddTable(name, t.header, t.rows)
	}
	return t.write(w)
}

// metric records one headline number into the run's artifact (no-op
// without one).
func (o Options) metric(name string, value float64, unit string) {
	if o.Artifact != nil {
		o.Artifact.AddMetric(name, value, unit)
	}
}

// notef mirrors one formatted summary line into the artifact's notes
// (no-op without one). Callers still print the line to w themselves.
func (o Options) notef(format string, args ...any) {
	if o.Artifact != nil {
		o.Artifact.AddNote(fmt.Sprintf(format, args...))
	}
}

// forEach fans the runner's independent points [0, n) across the
// configured worker pool (see parallel.ForEach for the determinism
// contract).
func (o Options) forEach(n int, fn func(i int) error) error {
	return parallel.ForEach(workersFor(o.Parallel), n, fn)
}

// workersFor maps the Options.Parallel convention (1/negative = serial,
// 0 = GOMAXPROCS) onto parallel.Workers.
func workersFor(p int) int {
	if p < 0 {
		return 1
	}
	return parallel.Workers(p)
}

// datasets resolves the dataset list for a run.
func (o Options) datasets() []graph.Dataset {
	if len(o.Datasets) > 0 {
		return o.Datasets
	}
	if o.Quick {
		return graph.Datasets[:2]
	}
	return graph.Datasets
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the artifact key: "table1", "fig9", ….
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Run writes the regenerated rows to w.
	Run func(w io.Writer, opt Options) error
	// Measured marks fig12, fig19 and fig20. Only bench/ reads it: its
	// figures workload checks no golden hash for a Measured experiment,
	// and its golden file has none for these three yet. The next bench/
	// change records the three hashes and deletes the field.
	Measured bool
	// Revision numbers the method the experiment computes its result
	// by. OptionsDigest folds a nonzero revision in, so -resume reruns
	// an artifact an earlier method wrote; at zero the digest is what
	// it was before revisions existed. fig12, fig19 and fig20 are at 1:
	// revision 0 timed this process, 1 prices on the models.
	Revision int
}

var registry = []Experiment{
	{ID: "table1", Title: "Average edges in non-empty 8×8 blocks (Navg)", Run: runTable1},
	{ID: "table3", Title: "ReRAM bank power under different configurations", Run: runTable3},
	{ID: "table4", Title: "Energy efficiency varying SRAM sizes (MTEPS/W)", Run: runTable4},
	{ID: "fig9", Title: "Normalized DRAM/ReRAM delay, energy, EDP (sequential access)", Run: runFig9},
	{ID: "fig10", Title: "Normalized vertex-memory EDP DRAM/ReRAM on HyVE and GraphR", Run: runFig10},
	{ID: "fig11", Title: "Vertex storage comparison GraphR/HyVE", Run: runFig11},
	{ID: "fig12", Title: "Preprocessing speed vs number of blocks", Run: runFig12, Measured: true, Revision: 1},
	{ID: "fig13", Title: "Energy efficiency by ReRAM cell bits", Run: runFig13},
	{ID: "fig14", Title: "Data-sharing energy-efficiency improvement", Run: runFig14},
	{ID: "fig15", Title: "Power-gating energy-efficiency improvement", Run: runFig15},
	{ID: "fig16", Title: "Energy efficiency across configurations (MTEPS/W)", Run: runFig16},
	{ID: "fig17", Title: "Energy consumption breakdown", Run: runFig17},
	{ID: "fig18", Title: "Execution time SD/HyVE", Run: runFig18},
	{ID: "fig19", Title: "Preprocessing time GraphR/HyVE", Run: runFig19, Measured: true, Revision: 1},
	{ID: "fig20", Title: "Dynamic graph update throughput", Run: runFig20, Measured: true, Revision: 1},
	{ID: "fig21", Title: "GraphR/HyVE delay, energy, EDP", Run: runFig21},
	{ID: "ablation-interleave", Title: "Bank vs subbank interleaving (extension)", Run: runAblationInterleave},
	{ID: "ablation-nvm", Title: "Edge-memory NVM alternatives (extension)", Run: runAblationNVM},
	{ID: "ablation-gate-timeout", Title: "Power-gate idle timeout sweep (extension)", Run: runAblationGateTimeout},
	{ID: "ablation-router", Title: "Router reroute cost sensitivity (extension)", Run: runAblationRouter},
	{ID: "ablation-model", Title: "Edge-centric vs vertex-centric locality (extension)", Run: runAblationModel},
	{ID: "ablation-precision", Title: "Crossbar compute precision (extension)", Run: runAblationPrecision},
	{ID: "ablation-topology", Title: "Topology sensitivity (extension)", Run: runAblationTopology},
	{ID: "reliability", Title: "ReRAM faults: SECDED ECC and bank sparing (extension)", Run: runReliability},
}

// All returns every experiment in paper order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(ids(), ", "))
}

func ids() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// --- workload assembly ----------------------------------------------------

// workloadFor builds the standard workload for (dataset, program) with
// the functional outcome (iteration count, activity factors) filled in.
// Nothing is cached here: core.WorkloadFor returns the one memoized
// instance per dataset (and its one weighted sibling), and the
// functional summary is memoized on that graph, so every runner asking
// for the same point shares one functional run. The key space is the
// graph instance itself — scale and seed included — so differently
// scaled or reseeded variants of a dataset never share outcomes. Graphs
// and programs are read-only during simulation, which is what makes
// concurrent core.Simulate calls on the same workload race-free.
func workloadFor(d graph.Dataset, progName string) (core.Workload, error) {
	p, err := algo.ByName(progName)
	if err != nil {
		return core.Workload{}, err
	}
	w, err := core.WorkloadFor(d, p)
	if err != nil {
		return core.Workload{}, err
	}
	fr, err := core.FunctionalSummary(w.Graph, w.Program)
	if err != nil {
		return core.Workload{}, err
	}
	w.Iterations = fr.Iterations
	w.ActivityFactor = fr.ActivityRatio()
	w.UpdateFactor = fr.UpdateRatio()
	return w, nil
}

// --- tiny aligned-table writer ------------------------------------------

type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

// addf adds one row from a "|"-separated format string: each segment is
// one cell's format, rendered independently with the arguments its verbs
// consume. Splitting happens on the format string, never on rendered
// output, so a formatted value containing "|" stays inside its cell
// instead of silently shifting every column after it.
func (t *table) addf(format string, args ...any) {
	segs := strings.Split(format, "|")
	cells := make([]string, len(segs))
	at := 0
	for i, seg := range segs {
		n := countVerbs(seg)
		if at+n > len(args) {
			n = len(args) - at
		}
		cells[i] = fmt.Sprintf(seg, args[at:at+n]...)
		at += n
	}
	if at < len(args) {
		// Surplus arguments are a caller bug; surface them the way
		// fmt does rather than dropping data.
		cells[len(cells)-1] += fmt.Sprintf("%%!(EXTRA args=%v)", args[at:])
	}
	t.add(cells...)
}

// countVerbs counts the arguments a format segment consumes: one per
// verb, skipping the literal "%%". The runners' formats use only
// fixed-width verbs (%s, %d, %v, %.2f, …), none of the '*'-indirect
// forms, so one verb is always one argument.
func countVerbs(format string) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		if i+1 < len(format) && format[i+1] == '%' {
			i++
			continue
		}
		n++
	}
	return n
}

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, x := range widths {
		total += x + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// geomean returns the geometric mean of positive values (the averaging
// the paper uses for its improvement factors).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
