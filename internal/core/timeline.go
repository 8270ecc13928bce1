package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/units"
)

// BuildTimeline renders one iteration of Algorithm 2 under cfg as a
// span timeline, loadable in chrome://tracing / Perfetto through
// obs.Timeline's catapult exporter:
//
//   - a controller track: the stream fill, every vertex-interval load
//     and writeback through the load port, and the per-step sync
//     barriers;
//   - one track per PU: the edge-block it streams each step, sized by
//     the Eq. (1) pipeline bound;
//   - a router track (data-sharing configs): the reroute windows in
//     which source intervals are handed between PUs;
//   - edge-memory bank tracks: each touched bank's awake window under
//     the §4.1 bank power gates — first access to last access plus the
//     idle timeout — or one always-awake region track when gating is
//     off.
//
// The spans are iterationCost's own charges, seen through timelineView:
// each starts at the walk's running clock and lasts what the cost model
// charged, so the timeline ends exactly where the walk's iteration time
// does.
func BuildTimeline(cfg Config, w Workload) (*obs.Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := newSim(cfg, w)
	if err != nil {
		return nil, err
	}
	if s.onchip == nil {
		return nil, fmt.Errorf("core: timeline requires the on-chip hierarchy (config %s has none)", cfg.Name)
	}

	v := &timelineView{s: s, tl: &obs.Timeline{},
		bankFirst: make(map[int]units.Time), bankLast: make(map[int]units.Time)}
	// Pin the display order: controller, PUs, router, then banks as
	// they wake.
	v.tl.Track("controller")
	for p := 0; p < s.cfg.NumPUs; p++ {
		v.tl.Track(fmt.Sprintf("PU %d", p))
	}
	if s.cfg.DataSharing {
		v.tl.Track("router")
	}
	if s.gate != nil {
		v.bankBytes = s.edgeDev.CapacityBytes() / int64(s.gate.TotalBanks/s.edgeReg.Chips)
	}
	end, _, _ := s.iterationCost(v)

	tl := v.tl
	if s.gate == nil {
		// No gating: the edge region is one always-awake lane.
		tl.Add(obs.Span{Track: "edge-memory", Name: "awake (ungated)", Cat: "gate",
			Start: 0, Dur: end})
		return tl, nil
	}
	// Awake windows under the idle-timeout policy: wake at first access,
	// linger for IdleTimeout after the last, clamped to the iteration.
	for b := 0; b < s.gate.TotalBanks; b++ {
		first, ok := v.bankFirst[b]
		if !ok {
			continue
		}
		last := v.bankLast[b] + s.gate.Params.IdleTimeout
		if last > end {
			last = end
		}
		tl.Add(obs.Span{
			Track: fmt.Sprintf("edge-bank %d", b),
			Name:  "awake", Cat: "gate",
			Start: first, Dur: last - first,
			Args: map[string]any{"bank": b},
		})
	}
	return tl, nil
}

// timelineView draws the walk's charges as spans and tracks each edge
// bank's first and last access.
type timelineView struct {
	s  *machine
	tl *obs.Timeline
	// The scheduled image stores blocks in walk order, so the stream
	// position advances monotonically; bank k owns bytes
	// [k·bankBytes, (k+1)·bankBytes) of the region, mirroring the gating
	// model's geometry in run().
	bankBytes           int64
	streamPos           int64
	bankFirst, bankLast map[int]units.Time
}

func (v *timelineView) access(a Access, at, dur units.Time) {
	var name, cat string
	switch a.Kind {
	case EdgeBlockRead:
		v.tl.Add(obs.Span{
			Track: fmt.Sprintf("PU %d", a.PU),
			Name:  fmt.Sprintf("block (%d,%d)", a.BlockX, a.BlockY),
			Cat:   "process",
			Start: at, Dur: dur,
			Args: map[string]any{"edges": v.s.blockLen(a.BlockX, a.BlockY),
				"step": a.Step, "sbx": a.SuperBlockX, "sby": a.SuperBlockY},
		})
		v.touchBanks(a.Bytes, at, at+dur)
		return
	case DestLoad:
		name, cat = fmt.Sprintf("dst I%d → PU %d", a.Interval, a.PU), "load"
	case SourceLoad:
		name, cat = fmt.Sprintf("src I%d → PU %d", a.Interval, a.PU), "load"
	default:
		name, cat = fmt.Sprintf("writeback I%d", a.Interval), "writeback"
	}
	v.tl.Add(obs.Span{Track: "controller", Name: name, Cat: cat, Start: at, Dur: dur,
		Args: map[string]any{"interval": a.Interval, "bytes": a.Bytes}})
}

func (v *timelineView) overhead(name string, x, y, step int, at, dur units.Time) {
	sp := obs.Span{Track: "controller", Name: name, Cat: "overhead", Start: at, Dur: dur}
	switch name {
	case "reroute":
		sp.Track, sp.Cat = "router", "route"
		sp.Args = map[string]any{"step": step, "sbx": x, "sby": y}
	case "sync":
		sp.Cat = "sync"
		sp.Args = map[string]any{"step": step}
	}
	v.tl.Add(sp)
}

// touchBanks advances the stream over a block of the given size, read
// from start to end, and widens each covered bank's access window.
func (v *timelineView) touchBanks(bytes int64, start, end units.Time) {
	if v.s.gate == nil || bytes <= 0 {
		v.streamPos += bytes
		return
	}
	b0 := int(v.streamPos / v.bankBytes)
	v.streamPos += bytes
	b1 := int((v.streamPos - 1) / v.bankBytes)
	for b := b0; b <= b1 && b < v.s.gate.TotalBanks; b++ {
		if _, ok := v.bankFirst[b]; !ok {
			v.bankFirst[b] = start
		}
		v.bankLast[b] = end
	}
}
