package core

import (
	"fmt"

	"repro/internal/graph"
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
// The walk uses the cost simulator's clock: spans advance by exactly
// the quantities iterationCost charges, so the timeline's end matches
// Detail.IterTime() for the same configuration and workload (the
// timeline tests hold the two against each other).
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

	n := s.cfg.NumPUs
	pn := s.p / n
	st := s.stages()
	edgeSize := int64(graph.EdgeBytes)
	if w.Program.NeedsWeights() {
		edgeSize += 4
	}

	tl := &obs.Timeline{}
	// Pin the display order: controller, PUs, router, then banks as
	// they wake.
	tl.Track("controller")
	for p := 0; p < n; p++ {
		tl.Track(fmt.Sprintf("PU %d", p))
	}
	if s.cfg.DataSharing {
		tl.Track("router")
	}

	// Edge-bank activity: the scheduled image stores blocks in walk
	// order, so the stream position advances monotonically; bank k owns
	// bytes [k·bankBytes, (k+1)·bankBytes) of the region, mirroring the
	// gating model's geometry in run().
	var bankBytes int64
	totalBanks := 0
	if s.gate != nil {
		totalBanks = s.gate.TotalBanks
		bankBytes = s.edgeDev.CapacityBytes() / int64(s.gate.TotalBanks/s.edgeReg.Chips)
	}
	var streamPos int64
	bankFirst := make(map[int]units.Time)
	bankLast := make(map[int]units.Time)
	touchBanks := func(bytes int64, start, end units.Time) {
		if s.gate == nil || bytes <= 0 {
			streamPos += bytes
			return
		}
		b0 := int(streamPos / bankBytes)
		streamPos += bytes
		b1 := int((streamPos - 1) / bankBytes)
		for b := b0; b <= b1 && b < totalBanks; b++ {
			if _, ok := bankFirst[b]; !ok {
				bankFirst[b] = start
			}
			bankLast[b] = end
		}
	}

	var clock units.Time
	controller := func(name, cat string, dur units.Time, args map[string]any) {
		tl.Add(obs.Span{Track: "controller", Name: name, Cat: cat, Start: clock, Dur: dur, Args: args})
		clock += dur
	}

	fill := s.edgeReg.Read(false).Latency
	controller("stream fill", "overhead", fill, nil)

	loadInterval := func(iv, pu int, kind string) {
		bytes := s.intervalBytes(iv)
		t, _, _ := s.transferCost(bytes, false)
		controller(fmt.Sprintf("%s I%d → PU %d", kind, iv, pu), "load", t,
			map[string]any{"interval": iv, "bytes": bytes})
	}

	for y := 0; y < pn; y++ {
		for x := 0; x < pn; x++ {
			if (s.cfg.DataSharing && x == 0) || !s.cfg.DataSharing {
				for i := 0; i < n; i++ {
					loadInterval(y*n+i, i, "dst")
				}
			}
			if s.cfg.DataSharing {
				for i := 0; i < n; i++ {
					loadInterval(x*n+i, i, "src")
				}
			}

			for step := 0; step < n; step++ {
				if !s.cfg.DataSharing {
					for p := 0; p < n; p++ {
						loadInterval(x*n+(p+step)%n, p, "src")
					}
				}
				var stepMax units.Time
				for p := 0; p < n; p++ {
					src := x*n + (p+step)%n
					dst := y*n + p
					blkLen := s.blockLen(src, dst)
					if blkLen == 0 {
						continue
					}
					bt := st.perEdge.Times(float64(blkLen))
					tl.Add(obs.Span{
						Track: fmt.Sprintf("PU %d", p),
						Name:  fmt.Sprintf("block (%d,%d)", src, dst),
						Cat:   "process",
						Start: clock, Dur: bt,
						Args: map[string]any{"edges": blkLen, "step": step, "sbx": x, "sby": y},
					})
					touchBanks(int64(blkLen)*edgeSize, clock, clock+bt)
					if bt > stepMax {
						stepMax = bt
					}
				}
				if stepMax > 0 {
					// The per-block stream redirect (one array access
					// before the refill) that iterationCost folds into
					// the step.
					tl.Add(obs.Span{Track: "controller", Name: "stream redirect",
						Cat: "overhead", Start: clock + stepMax, Dur: fill})
					stepMax += fill
				}
				clock += stepMax

				if s.cfg.DataSharing && step > 0 {
					r := s.onchip.Cycle().Times(float64(s.cfg.RerouteCycles))
					tl.Add(obs.Span{Track: "router", Name: "reroute", Cat: "route",
						Start: clock, Dur: r,
						Args: map[string]any{"step": step, "sbx": x, "sby": y}})
					clock += r
				}
				controller("sync", "sync", s.cfg.SyncOverhead,
					map[string]any{"step": step})
			}

			if !s.cfg.DataSharing || x == pn-1 {
				for i := 0; i < n; i++ {
					iv := y*n + i
					bytes := s.intervalBytes(iv)
					t, _, _ := s.transferCost(bytes, true)
					controller(fmt.Sprintf("writeback I%d", iv), "writeback", t,
						map[string]any{"interval": iv, "bytes": bytes})
				}
			}
		}
	}

	if s.gate == nil {
		// No gating: the edge region is one always-awake lane.
		tl.Add(obs.Span{Track: "edge-memory", Name: "awake (ungated)", Cat: "gate",
			Start: 0, Dur: clock})
		return tl, nil
	}
	// Awake windows under the idle-timeout policy: wake at first access,
	// linger for IdleTimeout after the last, clamped to the iteration.
	for b := 0; b < totalBanks; b++ {
		first, ok := bankFirst[b]
		if !ok {
			continue
		}
		end := bankLast[b] + s.gate.Params.IdleTimeout
		if end > clock {
			end = clock
		}
		tl.Add(obs.Span{
			Track: fmt.Sprintf("edge-bank %d", b),
			Name:  "awake", Cat: "gate",
			Start: first, Dur: end - first,
			Args: map[string]any{"bank": b},
		})
	}
	return tl, nil
}
