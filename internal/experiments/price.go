package experiments

import (
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/device"
	"repro/internal/device/crossbar"
	"repro/internal/device/dram"
	"repro/internal/device/rram"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/graphr"
	"repro/internal/units"
)

// Figs. 12, 19 and 20 price what a layout does on the models instead of
// timing this process: a preprocessing pass by the memory operations
// its sizes imply (cpusim.PassTime), a dynamic request by the device
// operations the store performed for it. DESIGN.md §3 lists the
// charges.

// lineBytes is the cache line a bucketing pass keeps open per bucket:
// the bucket's edges are stored into it until it is full. A bucket also
// keeps its 8-byte cursor (HyVE) or 16-byte directory entry (GraphR).
const lineBytes = 64

// countingSortPasses are the passes of HyVE's preprocessing of e edges
// into p×p blocks (partition.Build): a histogram pass reads every edge
// and counts its block, a prefix sum turns the p² counts into cursors,
// and a scatter pass reads every edge again, bumps its block's cursor
// and stores the edge into that block's open line, which streams back
// once full.
func countingSortPasses(e, p int64) []cpusim.Pass {
	blocks := p * p
	return []cpusim.Pass{
		{SeqBytes: e * graph.EdgeBytes, Random: e, WorkingSet: blocks * 8},
		{SeqBytes: blocks * 8},
		{SeqBytes: 2 * e * graph.EdgeBytes, Random: 2 * e, WorkingSet: blocks * (8 + lineBytes)},
	}
}

// blockBucketingPasses is GraphR's preprocessing of e edges into its
// non-empty 8×8 blocks: one pass reads every edge, probes a directory
// of the blocks (16-byte entries) for the edge's block and appends the
// edge to that block's open line, which streams back once full.
func blockBucketingPasses(e, blocks int64) []cpusim.Pass {
	return []cpusim.Pass{
		{SeqBytes: 2 * e * graph.EdgeBytes, Random: 2 * e, WorkingSet: blocks * (16 + lineBytes)},
	}
}

// KindCost is what the requests of one kind changed and cost.
type KindCost struct {
	Requests int64
	// Changed counts changed edges; a vertex operation counts one.
	Changed int64
	Time    units.Time
}

// UpdateCost is a request stream applied to one store and priced on
// the device models, per request kind (indexed by dynamic.RequestKind).
type UpdateCost struct {
	Kinds [4]KindCost
}

func (c *UpdateCost) add(k dynamic.RequestKind, changed int, t units.Time) {
	kc := &c.Kinds[k]
	kc.Requests++
	kc.Changed += int64(changed)
	kc.Time += t
}

// Total sums the kinds.
func (c UpdateCost) Total() KindCost {
	var t KindCost
	for _, k := range c.Kinds {
		t.Requests += k.Requests
		t.Changed += k.Changed
		t.Time += k.Time
	}
	return t
}

// MillionEdgesPerSecond is Fig. 20's metric: changed edges over the
// priced time of the stream.
func (c UpdateCost) MillionEdgesPerSecond() float64 {
	t := c.Total()
	if t.Time <= 0 {
		return 0
	}
	return float64(t.Changed) / t.Time.Seconds() / 1e6
}

// PriceHyVE applies reqs to s and prices each request on acc+HyVE's
// devices, the ReRAM edge memory and the DRAM vertex memory. An edge
// request writes one slot at random (the appended edge, or the tail a
// delete clears); an overflow extent costs one more write, its link; a
// delete that moves the block's last edge into the victim's slot reads
// it and writes it; a vertex request writes the vertex's value; a
// re-preprocess streams every live edge out and back.
func PriceHyVE(s *dynamic.HyVEStore, reqs []dynamic.Request) (UpdateCost, error) {
	cfg := core.HyVE()
	edge, err := rram.New(cfg.RRAM)
	if err != nil {
		return UpdateCost{}, err
	}
	vertex, err := dram.New(cfg.DRAM)
	if err != nil {
		return UpdateCost{}, err
	}
	read, write := edge.Read(false).Latency, edge.Write(false).Latency
	var c UpdateCost
	for _, r := range reqs {
		over, moved, rep := s.Overflows, s.MovedLastEdge, s.Repreprocess
		n, err := dynamic.Apply(s, r)
		if err != nil {
			return UpdateCost{}, err
		}
		var t units.Time
		if r.Kind == dynamic.AddEdge || r.Kind == dynamic.DeleteEdge {
			t = write.Times(float64(n))
		} else {
			t = vertex.Write(false).Latency.Times(float64(n))
		}
		t += write.Times(float64(s.Overflows - over))
		t += (read + write).Times(float64(s.MovedLastEdge - moved))
		if passes := s.Repreprocess - rep; passes > 0 {
			bytes := s.NumEdges() * graph.EdgeBytes
			sweep := device.Sweep(edge, bytes, true, false).Plus(device.Sweep(edge, bytes, true, true))
			t += sweep.Latency.Times(float64(passes))
		}
		c.add(r.Kind, n, t)
	}
	return c, nil
}

// PriceGraphR applies reqs to s and prices each request on GraphR's
// devices: a block rewrite programs every cell of the block into the
// compute crossbars (crossbar.ProgramBlock, the per-cell charge of
// Eq. 15), and a vertex request writes the vertex's value in the ReRAM
// main memory.
func PriceGraphR(s *dynamic.GraphRStore, reqs []dynamic.Request) (UpdateCost, error) {
	cfg := graphr.Default()
	xbar, err := crossbar.New(cfg.Crossbar)
	if err != nil {
		return UpdateCost{}, err
	}
	global, err := rram.New(cfg.RRAM)
	if err != nil {
		return UpdateCost{}, err
	}
	rewrite := xbar.ProgramBlock(s.BlockCells()).Latency
	var c UpdateCost
	for _, r := range reqs {
		rewrites := s.Rewrites
		n, err := dynamic.Apply(s, r)
		if err != nil {
			return UpdateCost{}, err
		}
		t := rewrite.Times(float64(s.Rewrites - rewrites))
		if r.Kind == dynamic.AddVertex || r.Kind == dynamic.DeleteVertex {
			t += global.Write(false).Latency.Times(float64(n))
		}
		c.add(r.Kind, n, t)
	}
	return c, nil
}
