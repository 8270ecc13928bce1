package check

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/algo"
	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/device/sram"
	"repro/internal/dynamic"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphr"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Invariant is one cross-model or structural property checked at every
// point it applies to.
type Invariant struct {
	// Name identifies the invariant in reports ("cost-vs-trace").
	Name string
	// Tolerance documents the agreement the check demands.
	Tolerance string
	// Applies filters points (nil = every point).
	Applies func(*Point) bool
	// Check runs the invariant; a non-nil error is a conformance failure.
	Check func(*Point) error
}

// Invariants returns the full registry, in evaluation order.
func Invariants() []Invariant {
	return []Invariant{
		{
			Name:      "engine-vs-reference",
			Tolerance: "BFS/CC exact; PR/SpMV ≤1e-9; SSSP ≤1e-6 (rel above 1)",
			Check: func(p *Point) error {
				return algo.CheckAgainstReference(p.Prog, p.Graph)
			},
		},
		{
			Name:      "blocked-vs-flat",
			Tolerance: "≤1e-9 (blocked streaming reorders float accumulation)",
			Check:     checkBlockedVsFlat,
		},
		{
			Name:      "kernel-vs-oracle",
			Tolerance: "exact: bit-identical values, identical counters",
			Check:     checkKernelVsOracle,
		},
		{
			Name:      "cost-vs-trace",
			Tolerance: "times ≤1e-9 rel; trace traffic byte-exact vs Detail counters",
			Check: func(p *Point) error {
				r, err := p.Sim()
				if err != nil {
					return err
				}
				return core.CheckResult(p.Cfg, p.Workload, r)
			},
		},
		{
			Name:      "analytic-decomposition",
			Tolerance: "Time ≥ bound, EDP ≥ Eq. 6 bound, (Σ terms)² = bound ≤1e-9",
			Check:     checkAnalyticDecomposition,
		},
		{
			Name:      "analytic-vs-sim",
			Tolerance: "|E|/N ≤ ProcessTime/perEdgeStage ≤ |E| (Eq. 1 pipeline bound)",
			Check:     checkAnalyticVsSim,
		},
		{
			Name:      "graphr-vs-emulation",
			Tolerance: "occupancy exact; compute ≤1e-9 rel; crossbar PR error ≤10%",
			Check: func(p *Point) error {
				cfg := graphr.Default()
				cfg.Parallel = []int{8, 16, 32}[int(p.Seed%3)]
				return graphr.CheckModelVsEmulation(cfg, p.Workload)
			},
		},
		{
			Name:      "gate-vs-replay",
			Tolerance: "awake time within IdleTimeout×banks + 10% of ProcessTime",
			Applies:   func(p *Point) bool { return p.Cfg.PowerGating },
			Check:     checkGateVsReplay,
		},
		{
			Name:      "partition-coverage",
			Tolerance: "exact: blocks tile and cover the edge multiset",
			Check:     checkPartitionCoverage,
		},
		{
			Name:      "dynamic-stores",
			Tolerance: "exact: HyVE and GraphR stores agree on live edges",
			Check:     checkDynamicStores,
		},
		{
			Name:      "artifact-roundtrip",
			Tolerance: "byte-exact canonical re-encoding after decode",
			Check:     checkArtifactRoundtrip,
		},
		{
			Name:      "cache-hit-identity",
			Tolerance: "byte-exact: memory and disk hits identical to fresh execution",
			Check:     checkCacheHitIdentity,
		},
		{
			Name:      "v2-load-identity",
			Tolerance: "byte-exact: v2-loaded graphs keep the cache key and result bytes",
			Check:     checkV2LoadIdentity,
		},
		{
			Name:      "fault-zero-rate",
			Tolerance: "exact: zero-rate fault layer bit-identical to no layer",
			Check:     checkFaultZeroRate,
		},
		{
			Name:      "fault-secded",
			Tolerance: "counts consistent, seed-deterministic, overhead ≥ 0",
			Check:     checkFaultSECDED,
		},
	}
}

// checkBlockedVsFlat compares the blocked (grid-scheduled) functional
// execution against the flat edge-order run: the synchronous GAS
// semantics make results independent of traversal order, so the two must
// agree to float reassociation noise.
func checkBlockedVsFlat(p *Point) error {
	flat, err := p.Flat()
	if err != nil {
		return err
	}
	blocked, err := p.Blocked()
	if err != nil {
		return err
	}
	if blocked.Iterations != flat.Iterations {
		return fmt.Errorf("check: blocked run took %d iterations, flat took %d",
			blocked.Iterations, flat.Iterations)
	}
	return algo.CompareValues("blocked vs flat", blocked.Values, flat.Values, 1e-9)
}

// checkKernelVsOracle holds every rewritten hot path against the generic
// interface-dispatched engine: the monomorphized kernels and the
// owner-computes parallel runner on the flat edge list (algo hook), then
// the block-parallel Algorithm 2 schedule against its sequential
// (Parallelism=1) execution — all bit-identical, counters included.
func checkKernelVsOracle(p *Point) error {
	if err := algo.CheckKernelVsOracle(p.Prog, p.Graph); err != nil {
		return err
	}
	seqCfg := p.Cfg
	seqCfg.Parallelism = 1
	seq, err := core.RunFunctional(seqCfg, p.Workload)
	if err != nil {
		return err
	}
	parCfg := p.Cfg
	parCfg.Parallelism = 4
	par, err := core.RunFunctional(parCfg, p.Workload)
	if err != nil {
		return err
	}
	return algo.CompareResults("block-parallel vs sequential schedule", par, seq)
}

// analyticModel instantiates the Eq. 1–16 model at the point's operating
// points: global vertex memory per the config, local memory the on-chip
// SRAM (or the global device in the SRAM-less baselines), the edge
// device's sequential read, and the CMOS PU op.
func analyticModel(p *Point) (analytic.Model, error) {
	gp, err := core.ChoosePFor(p.Cfg, p.Workload)
	if err != nil {
		return analytic.Model{}, err
	}
	counts, err := analytic.HyVECounts(int64(p.Graph.NumVertices), int64(p.Graph.NumEdges()), gp, p.Cfg.NumPUs)
	if err != nil {
		return analytic.Model{}, err
	}
	rchip, err := rram.New(p.Cfg.RRAM)
	if err != nil {
		return analytic.Model{}, err
	}
	dchip, err := dram.New(p.Cfg.DRAM)
	if err != nil {
		return analytic.Model{}, err
	}
	pick := func(k core.MemKind) device.Memory {
		if k == core.MemReRAM {
			return rchip
		}
		return dchip
	}
	global := pick(p.Cfg.VertexMemory)
	local := global
	if p.Cfg.UseOnChipSRAM {
		s, err := sram.New(p.Cfg.SRAMBytes)
		if err != nil {
			return analytic.Model{}, err
		}
		local = s
	}
	costs := analytic.VertexOps(global, local)
	costs.EdgeRead = pick(p.Cfg.EdgeMemory).Read(true)
	costs.PU = device.NewCMOSPU().Op()
	return analytic.Model{N: counts, C: costs}, nil
}

func checkAnalyticDecomposition(p *Point) error {
	m, err := analyticModel(p)
	if err != nil {
		return err
	}
	return m.CheckInvariants()
}

// checkAnalyticVsSim holds the simulator's per-iteration streaming time
// against the Eq. 1 per-edge pipeline bound: a perfectly balanced
// schedule streams |E|/N edges on the critical PU, a fully serialized
// one streams |E|.
func checkAnalyticVsSim(p *Point) error {
	r, err := p.Sim()
	if err != nil {
		return err
	}
	perEdge, err := core.PerEdgeStage(p.Cfg, p.Workload)
	if err != nil {
		return err
	}
	if perEdge <= 0 {
		return fmt.Errorf("check: non-positive per-edge stage %v", perEdge)
	}
	e := float64(p.Graph.NumEdges())
	lo := perEdge.Times(e / float64(p.Cfg.NumPUs))
	hi := perEdge.Times(e)
	const slack = 1e-9
	got := float64(r.Detail.ProcessTime)
	if got < float64(lo)*(1-slack) || got > float64(hi)*(1+slack) {
		return fmt.Errorf("check: process time %v outside [%v, %v] for |E|=%d N=%d",
			r.Detail.ProcessTime, lo, hi, p.Graph.NumEdges(), p.Cfg.NumPUs)
	}
	return nil
}

// checkGateVsReplay rebuilds one iteration's bank-activity windows from
// the simulated streaming phase and replays them through the exact
// idle-timeout policy, requiring the analytic gating stats to track the
// replay.
func checkGateVsReplay(p *Point) error {
	r, err := p.Sim()
	if err != nil {
		return err
	}
	stats := r.Detail.Gate
	iters := int64(r.Detail.Iterations)
	if iters <= 0 || stats.Transitions == 0 || stats.Transitions%iters != 0 {
		return fmt.Errorf("check: gate transitions %d do not divide into %d iterations",
			stats.Transitions, iters)
	}
	banks := int(stats.Transitions / iters)
	d := r.Detail.ProcessTime
	seg := d.Times(1 / float64(banks))
	windows := make([]mem.BankWindow, banks)
	for b := 0; b < banks; b++ {
		windows[b] = mem.BankWindow{
			Bank:  b,
			Start: seg.Times(float64(b)),
			End:   seg.Times(float64(b + 1)),
		}
	}
	awake, transitions, err := mem.ReplayGating(p.Cfg.Gate, windows)
	if err != nil {
		return err
	}
	if transitions != int64(banks) {
		return fmt.Errorf("check: replay made %d transitions for %d disjoint banks", transitions, banks)
	}
	perIter := stats.AwakeBankTime.Times(1 / float64(iters))
	slack := p.Cfg.Gate.IdleTimeout.Times(float64(banks)) + d.Times(0.1)
	if diff := math.Abs(float64(awake - perIter)); diff > float64(slack) {
		return fmt.Errorf("check: replay awake bank-time %v vs model %v differs by more than %v",
			awake, perIter, slack)
	}
	return nil
}

// checkPartitionCoverage builds both assigners over the point's graph
// and verifies each is a true partition whose grid exactly covers the
// edge set.
func checkPartitionCoverage(p *Point) error {
	nv := p.Graph.NumVertices
	ps := []int{p.Cfg.NumPUs}
	if nv >= 7 {
		ps = append(ps, 7) // a non-divisor exercises ragged intervals
	}
	for _, np := range ps {
		if np > nv {
			continue
		}
		hashed, err := partition.NewHashed(nv, np)
		if err != nil {
			return err
		}
		contig, err := partition.NewContiguous(nv, np)
		if err != nil {
			return err
		}
		for _, a := range []partition.Assigner{hashed, contig} {
			if err := partition.CheckAssigner(a); err != nil {
				return err
			}
			grid, err := partition.Build(p.Graph, a)
			if err != nil {
				return err
			}
			if err := grid.CheckPartition(p.Graph); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDynamicStores replays one seeded request stream into both
// dynamic-store implementations and requires them to agree on the
// surviving edge set size — the differential check behind the Fig. 20
// comparison's fairness.
func checkDynamicStores(p *Point) error {
	rng := graph.NewRNG(p.Seed ^ 0xD15C)
	add := 1 + rng.Intn(50)
	del := rng.Intn(101 - add)
	av := rng.Intn(101 - add - del)
	mix := dynamic.Mix{AddEdgePct: add, DeleteEdgePct: del, AddVertexPct: av,
		DeleteVertexPct: 100 - add - del - av}
	n := 500 + rng.Intn(1501)
	reqs, err := dynamic.GenerateRequests(p.Graph, n, mix, p.Seed^0xBEEF)
	if err != nil {
		return err
	}
	np := 8
	if p.Graph.NumVertices < np {
		np = 1
	}
	asg, err := partition.NewHashed(p.Graph.NumVertices, np)
	if err != nil {
		return err
	}
	hy, err := dynamic.NewHyVEStore(p.Graph, asg, 0.3)
	if err != nil {
		return err
	}
	gr, err := dynamic.NewGraphRStore(p.Graph, 8)
	if err != nil {
		return err
	}
	for i, r := range reqs {
		if _, err := dynamic.Apply(hy, r); err != nil {
			return fmt.Errorf("check: HyVE store rejects request %d (%v): %w", i, r.Kind, err)
		}
		if _, err := dynamic.Apply(gr, r); err != nil {
			return fmt.Errorf("check: GraphR store rejects request %d (%v): %w", i, r.Kind, err)
		}
	}
	if hy.NumEdges() != gr.NumEdges() {
		return fmt.Errorf("check: stores disagree after %d requests: HyVE %d edges, GraphR %d",
			n, hy.NumEdges(), gr.NumEdges())
	}
	if got := int64(len(hy.Edges())); got != hy.NumEdges() {
		return fmt.Errorf("check: HyVE store reports %d edges but snapshots %d", hy.NumEdges(), got)
	}
	return nil
}

// checkFaultZeroRate holds the fault layer's "disabled-equivalent"
// contract: enabling the layer with every rate zero and no ECC must
// reproduce the fault-free simulation bit-for-bit — same time, same
// per-component energy, same phase anatomy. Only the bookkeeping
// LinesRead count may differ (the sweep still scans).
func checkFaultZeroRate(p *Point) error {
	base, err := p.Sim()
	if err != nil {
		return err
	}
	cfg := p.Cfg
	cfg.Fault = fault.Config{Enabled: true, Seed: p.Seed}
	r, err := core.Simulate(cfg, p.Workload)
	if err != nil {
		return err
	}
	if r.Report != base.Report {
		return fmt.Errorf("check: zero-rate fault layer perturbed the report: time %v vs %v, energy %v vs %v",
			r.Report.Time, base.Report.Time, r.Report.Energy.Total(), base.Report.Energy.Total())
	}
	if s := r.Detail.Fault; s.Injected != 0 || s.Corrected != 0 || s.Detected != 0 ||
		s.Uncorrectable != 0 || s.Silent != 0 || s.BanksFailed != 0 || s.WordDigest != 0 {
		return fmt.Errorf("check: zero-rate sweep injected something: %+v", s)
	}
	got, want := r.Detail, base.Detail
	got.Fault = fault.Stats{}
	if got != want {
		return fmt.Errorf("check: zero-rate fault layer perturbed the detail: %+v vs %+v", got, want)
	}
	return nil
}

// checkFaultSECDED drives the layer hard — a raw BER high enough to put
// multi-bit words in every run — and holds the outcome to its internal
// arithmetic: detected = corrected + uncorrectable, every injected bit
// accounted, the whole Stats struct (digest included) identical on a
// re-run with the same seed, and the resilience overhead non-negative
// in both time and energy against the point's fault-free run.
func checkFaultSECDED(p *Point) error {
	base, err := p.Sim()
	if err != nil {
		return err
	}
	cfg := p.Cfg
	cfg.Fault = fault.Config{
		Enabled: true, Seed: p.Seed,
		RawBER:       1e-4,
		StuckBitRate: 1e-6,
		ECC:          fault.ECCSECDED,
	}
	r1, err := core.Simulate(cfg, p.Workload)
	if err != nil {
		return err
	}
	r2, err := core.Simulate(cfg, p.Workload)
	if err != nil {
		return err
	}
	s := r1.Detail.Fault
	if s != r2.Detail.Fault {
		return fmt.Errorf("check: same seed, different fault stats: %+v vs %+v", s, r2.Detail.Fault)
	}
	if r1.Report != r2.Report {
		return fmt.Errorf("check: same seed, different faulted report")
	}
	if s.Detected != s.Corrected+s.Uncorrectable {
		return fmt.Errorf("check: detected %d ≠ corrected %d + uncorrectable %d",
			s.Detected, s.Corrected, s.Uncorrectable)
	}
	if s.Injected < s.Flipped {
		return fmt.Errorf("check: injected %d bits but flipped %d", s.Injected, s.Flipped)
	}
	// Positivity only where a zero outcome is statistically implausible:
	// each line carries at least one (72,64) codeword, so the expected
	// flip count is ≥ LinesRead·72·BER. Above 30 expected, P(none) is
	// e^-30 — tiny conformance graphs legitimately draw zero flips.
	if minExpected := float64(s.LinesRead) * 72 * cfg.Fault.RawBER; minExpected > 30 && s.Injected == 0 {
		return fmt.Errorf("check: injected 0 bits at BER %v over %d lines (expected ≥ %.0f)",
			cfg.Fault.RawBER, s.LinesRead, minExpected)
	}
	words := s.Corrected + s.Uncorrectable + s.Silent
	if words > s.Injected {
		return fmt.Errorf("check: %d errored words from %d injected bits", words, s.Injected)
	}
	if s.Injected > 0 && words == 0 {
		return fmt.Errorf("check: %d injected bits produced no errored word", s.Injected)
	}
	if r1.Report.Time < base.Report.Time {
		return fmt.Errorf("check: ECC made the run faster: %v vs %v", r1.Report.Time, base.Report.Time)
	}
	if r1.Report.Energy.Total() < base.Report.Energy.Total() {
		return fmt.Errorf("check: ECC made the run cheaper: %v vs %v",
			r1.Report.Energy.Total(), base.Report.Energy.Total())
	}
	return nil
}

// checkCacheHitIdentity holds the result cache to its core contract: a
// cache hit is indistinguishable from a fresh execution. The point runs
// once through a disk-backed scheduler (asserting it actually executed),
// is fetched back from the in-memory LRU, and then fetched by a second,
// cold scheduler that can only find it in the on-disk store — and every
// one of those results, plus the sweep's own independently simulated
// baseline, must encode to identical canonical bytes.
func checkCacheHitIdentity(p *Point) error {
	base, err := p.Sim()
	if err != nil {
		return err
	}
	baseBytes, err := cache.EncodeResult(base)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "hyve-cache-check")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	warm := cache.New(cache.Config{Dir: dir})
	executed, err := warm.Simulate(p.Cfg, p.Workload)
	if err != nil {
		return err
	}
	if st := warm.Stats(); st.Executed != 1 || st.Bypassed != 0 {
		return fmt.Errorf("check: cold scheduler stats %+v, want exactly one execution", st)
	}
	memHit, err := warm.Simulate(p.Cfg, p.Workload)
	if err != nil {
		return err
	}
	if st := warm.Stats(); st.MemHits != 1 {
		return fmt.Errorf("check: repeat submission stats %+v, want one memory hit", st)
	}

	cold := cache.New(cache.Config{Dir: dir})
	diskHit, err := cold.Simulate(p.Cfg, p.Workload)
	if err != nil {
		return err
	}
	if st := cold.Stats(); st.DiskHits != 1 || st.Executed != 0 {
		return fmt.Errorf("check: fresh scheduler over same store stats %+v, want one disk hit and no execution", st)
	}

	for _, tc := range []struct {
		name string
		r    *core.Result
	}{{"executed", executed}, {"memory hit", memHit}, {"disk hit", diskHit}} {
		b, err := cache.EncodeResult(tc.r)
		if err != nil {
			return fmt.Errorf("check: encoding %s result: %w", tc.name, err)
		}
		if !bytes.Equal(b, baseBytes) {
			return fmt.Errorf("check: %s result differs from fresh execution (%d vs %d bytes)",
				tc.name, len(b), len(baseBytes))
		}
	}
	return nil
}

// checkV2LoadIdentity holds the prepared-container pipeline (PR 9) to
// the generation contract: a graph round-tripped through a v2 container
// — pre-partitioned grid sections included — must be
// indistinguishable from the in-process instance. The point's graph is
// compiled to a temp container at the P its own simulation will choose,
// then loaded back through both readers (mmap via OpenV2 and the
// streaming ReadV2). For each, the cache key must not move and a full
// simulation over the loaded graph — whose grid comes from the stored
// sections via the partition fast path — must encode to the same
// canonical bytes as the fresh run.
func checkV2LoadIdentity(p *Point) error {
	base, err := p.Sim()
	if err != nil {
		return err
	}
	baseBytes, err := cache.EncodeResult(base)
	if err != nil {
		return err
	}
	baseKey, err := cache.PointDigest(p.Cfg, p.Workload)
	if err != nil {
		return err
	}
	gridP, err := core.ChoosePFor(p.Cfg, p.Workload)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "hyve-v2-check")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "point.hyve2")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := graph.NewV2Writer(f, p.Graph.NumVertices, p.Graph.NumEdges())
	if err != nil {
		return err
	}
	if err := graph.WriteV2Into(w, p.Graph, p.Seed); err != nil {
		return err
	}
	asg, err := partition.NewHashed(p.Graph.NumVertices, gridP)
	if err != nil {
		return err
	}
	// A 1-byte budget forces the spilled-run path, so the check also
	// covers the bounded-memory builder's layout identity.
	if err := partition.StreamGridInto(w, p.Graph, asg, partition.StreamOptions{BudgetBytes: 1, TmpDir: dir}); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	for _, rd := range []struct {
		name string
		open func() (*graph.Container, error)
	}{
		{"mmap", func() (*graph.Container, error) { return graph.OpenV2(path) }},
		{"stream", func() (*graph.Container, error) {
			cf, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer cf.Close()
			st, err := cf.Stat()
			if err != nil {
				return nil, err
			}
			return graph.ReadV2(cf, st.Size())
		}},
	} {
		c, err := rd.open()
		if err != nil {
			return fmt.Errorf("check: %s reader: %w", rd.name, err)
		}
		lw := p.Workload
		lw.Graph = c.Graph()
		key, err := cache.PointDigest(p.Cfg, lw)
		if err != nil {
			c.Close()
			return err
		}
		if key != baseKey {
			c.Close()
			return fmt.Errorf("check: %s-loaded graph moved the cache key (%s vs %s)", rd.name, key, baseKey)
		}
		r, err := core.Simulate(p.Cfg, lw)
		if err != nil {
			c.Close()
			return fmt.Errorf("check: simulating %s-loaded graph: %w", rd.name, err)
		}
		b, err := cache.EncodeResult(r)
		if err != nil {
			c.Close()
			return err
		}
		if !bytes.Equal(b, baseBytes) {
			c.Close()
			return fmt.Errorf("check: %s-loaded result differs from fresh execution (%d vs %d bytes)",
				rd.name, len(b), len(baseBytes))
		}
		if err := c.Close(); err != nil {
			return fmt.Errorf("check: closing %s container: %w", rd.name, err)
		}
	}
	return nil
}

// checkArtifactRoundtrip builds a canonical artifact from the point's
// simulation, validates it, and requires decode → re-encode to be
// byte-identical — the stability contract of the hyve/artifact/v1
// format.
func checkArtifactRoundtrip(p *Point) error {
	r, err := p.Sim()
	if err != nil {
		return err
	}
	art := obs.NewArtifact(
		fmt.Sprintf("check-%d", p.Seed),
		fmt.Sprintf("conformance point %s", p.GraphDesc),
		obs.Manifest{Datasets: []obs.DatasetRef{{
			Name: p.GraphDesc, Seed: p.Seed,
			FullVertices: int64(p.Graph.NumVertices),
			FullEdges:    int64(p.Graph.NumEdges()),
		}}})
	art.AddMetric("time", r.Report.Time.Seconds(), "s")
	art.AddMetric("energy", r.Report.Energy.Total().Joules(), "J")
	art.AddMetric("iterations", float64(r.Report.Iterations), "")
	art.AddTable("phases", []string{"phase", "time"}, [][]string{
		{"load", r.Detail.LoadTime.String()},
		{"process", r.Detail.ProcessTime.String()},
		{"writeback", r.Detail.WritebackTime.String()},
		{"overhead", r.Detail.OverheadTime.String()},
	})
	art.AddNote(fmt.Sprintf("config %s, program %s", p.Cfg.Name, p.Prog.Name()))
	if err := art.Validate(); err != nil {
		return err
	}
	var first bytes.Buffer
	if err := art.EncodeJSON(&first); err != nil {
		return err
	}
	decoded, err := obs.DecodeJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		return err
	}
	if err := decoded.Validate(); err != nil {
		return err
	}
	var second bytes.Buffer
	if err := decoded.EncodeJSON(&second); err != nil {
		return err
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return fmt.Errorf("check: artifact re-encoding is not canonical (%d vs %d bytes)",
			first.Len(), second.Len())
	}
	return nil
}
