package core

import (
	"fmt"
	"sync"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// RunFunctional executes the workload's program through the exact
// Algorithm 2 super-block schedule — same partition, same block order,
// same step interleaving as the cost simulator — and returns the
// functional result. Because the execution model is synchronous
// (sources read-only during a super block, §4.2), this must produce
// bit-identical values to the flat algo.Run oracle; the tests enforce
// that equivalence, which is the correctness argument for the
// data-sharing schedule.
//
// The n blocks of one schedule step update owner-disjoint destination
// intervals (§4.2 owner-computes: PU p owns interval y·n+p), so they
// stream on cfg.Parallelism workers with a barrier per step; each
// destination still sees its edges in the canonical schedule order, so
// the result is bit-identical at every worker count.
func RunFunctional(cfg Config, w Workload) (*algo.Result, error) {
	m, err := NewMachine(cfg, w)
	if err != nil {
		return nil, err
	}
	return m.RunFunctional()
}

func (s *machine) runFunctional() (*algo.Result, error) {
	st, err := algo.NewState(s.w.Program, s.w.Graph)
	if err != nil {
		return nil, err
	}
	n := s.cfg.NumPUs
	pn := s.p / n
	workers := parallel.Workers(s.cfg.Parallelism)
	if workers > n {
		workers = n
	}
	// Per-PU counter slots, merged after each step's barrier; reused
	// across steps (each step overwrites every slot it touches).
	stats := make([]algo.KernelStats, n)
	grid := s.edgeGrid()
	for !st.Done() {
		if st.Iteration > st.MaxIterations() {
			return nil, errNoConvergence(s.w.Program.Name(), st.Iteration)
		}
		st.BeginIteration()
		for y := 0; y < pn; y++ {
			for x := 0; x < pn; x++ {
				for step := 0; step < n; step++ {
					err := parallel.ForEach(workers, n, func(p int) error {
						var ks algo.KernelStats
						src, dst := x*n+(p+step)%n, y*n+p
						st.ProcessEdgesInto(&ks, grid.Block(src, dst), grid.BlockWeights(src, dst))
						stats[p] = ks
						return nil
					})
					if err != nil {
						return nil, err
					}
					for p := 0; p < n; p++ {
						st.AddStats(stats[p])
					}
				}
			}
		}
		st.EndIteration()
	}
	return &algo.Result{
		Values:         st.Values,
		Iterations:     st.Iteration,
		EdgesProcessed: st.EdgesProcessed,
		ActiveEdges:    st.ActiveEdges,
		UpdatedGathers: st.UpdatedGathers,
		Converged:      st.Converged,
	}, nil
}

// functionalKey keys the functional summary memoized on a graph. It
// holds the program itself, matched by value (graph.Memo compares keys
// with reflect.DeepEqual), never by Name(): NewPageRankConverge, rooted
// BFS/SSSP and warm starts share a name but not a run.
type functionalKey struct{ prog algo.Program }

// FunctionalSummary returns the outcome of running p on g to completion
// (algo.Run) with Values dropped: the iteration count, the edge
// counters and the convergence flag, which is all the cost model needs.
// It is memoized on g, so the hierarchies simulated on one graph ×
// program pay for one functional run, and concurrent callers coalesce.
// The summary depends only on the program and the graph, never on the
// configuration; p must not change once it has been run. The result is
// shared by every caller and must be treated as read-only.
func FunctionalSummary(g *graph.Graph, p algo.Program) (*algo.Result, error) {
	v, err := g.Memo(functionalKey{p}, func() (any, error) {
		fr, err := algo.Run(p, g)
		if err != nil {
			return nil, err
		}
		fr.Values = nil // a memo must not pin |V| values for the graph's lifetime
		return fr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*algo.Result), nil
}

// Machine is one assembled simulator instance for a (Config, Workload)
// point: the devices, the regions and the partition are set up once and
// shared by every run of the point. The cost run prices from the block
// lengths alone, which are memoized on the graph's edge array, so
// assembling a machine copies no edges. The partitioned grid — the
// edges themselves in block order — is built on the first edge walk
// (RunFunctional, Grid) and shared from then on. Use a Machine when the
// same point needs both the blocked functional run and the cost run
// (the conformance harness).
//
// Both runs are memoized: the machine executes each at most once, so
// accumulating internals (the power-gate statistics) stay single-run
// exact. The methods are safe for concurrent use: the runs are
// mutex-guarded and the grid is built once.
type Machine struct {
	s *machine

	mu      sync.Mutex
	funcRes *algo.Result
	funcErr error
	funcRun bool
	simRes  *Result
	simErr  error
	simRun  bool
}

// NewMachine validates the point — the configuration, then a non-empty
// graph and a program — and assembles the simulator once.
func NewMachine(cfg Config, w Workload) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w.Graph == nil || w.Graph.NumVertices == 0 {
		return nil, graph.ErrEmptyGraph
	}
	if w.Program == nil {
		return nil, fmt.Errorf("core: workload has no program")
	}
	s, err := newSim(cfg, w)
	if err != nil {
		return nil, err
	}
	return &Machine{s: s}, nil
}

// Grid returns the partitioned graph, building it on first use.
func (m *Machine) Grid() *partition.Grid { return m.s.edgeGrid() }

// P returns the interval count the machine chose.
func (m *Machine) P() int { return m.s.p }

// Config returns the configuration the machine was assembled for.
func (m *Machine) Config() Config { return m.s.cfg }

// Workload returns the workload the machine was assembled for.
func (m *Machine) Workload() Workload { return m.s.w }

// RunFunctional runs (once; memoized) the blocked functional execution.
func (m *Machine) RunFunctional() (*algo.Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.funcRun {
		m.funcRes, m.funcErr = m.s.runFunctional()
		m.funcRun = true
	}
	return m.funcRes, m.funcErr
}

// SimulateTraced runs (once; memoized) the cost simulation. parent,
// when non-nil, parents the run's per-iteration phase spans (see
// emitPhaseSpans): the cache scheduler passes its point span so traces
// nest run → experiment → point → phase. The parent only matters on the
// first call — the run is memoized — and a nil parent (or disabled
// tracing) costs nothing.
func (m *Machine) SimulateTraced(parent *obs.SpanHandle) (*Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.simRun {
		m.s.traceParent = parent
		m.simRes, m.simErr = m.s.run()
		m.s.traceParent = nil
		m.simRun = true
	}
	return m.simRes, m.simErr
}

type convergenceError struct {
	prog  string
	iters int
}

func errNoConvergence(prog string, iters int) error {
	return &convergenceError{prog: prog, iters: iters}
}

func (e *convergenceError) Error() string {
	return "core: " + e.prog + " failed to converge through the blocked schedule"
}
