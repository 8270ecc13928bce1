package mem

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/units"
)

// PowerGateParams characterizes the bank power gates of §4.1 (Fig. 6):
// one header/footer gate per bank, a BPG controller per chip.
type PowerGateParams struct {
	// WakeLatency is the time to restore a gated bank's periphery.
	// Because the edge stream is sequential and therefore predictable,
	// the controller wakes the next bank ahead of need; Predictive
	// selects whether that hiding is credited.
	WakeLatency units.Time
	// WakeEnergy is the in-rush energy of one bank wake-up.
	WakeEnergy units.Energy
	// SleepEnergy is the control/gate energy of powering a bank down.
	SleepEnergy units.Energy
	// IdleTimeout is how long an idle active bank stays awake before the
	// controller gates it ("active banks that are not issued commands in
	// a fixed period of time are also powered down").
	IdleTimeout units.Time
	// Predictive hides WakeLatency behind the previous bank's streaming
	// when access is sequential.
	Predictive bool
}

// DefaultPowerGateParams returns the BPG operating point used by the
// HyVE-opt configuration.
func DefaultPowerGateParams() PowerGateParams {
	return PowerGateParams{
		WakeLatency: 100 * units.Nanosecond,
		WakeEnergy:  500 * units.Picojoule,
		SleepEnergy: 200 * units.Picojoule,
		IdleTimeout: 1 * units.Microsecond,
		Predictive:  true,
	}
}

// Validate rejects non-physical parameters.
func (p PowerGateParams) Validate() error {
	if p.WakeLatency < 0 || p.IdleTimeout < 0 {
		return fmt.Errorf("mem: negative power-gate timing %+v", p)
	}
	if p.WakeEnergy < 0 || p.SleepEnergy < 0 {
		return fmt.Errorf("mem: negative power-gate energy %+v", p)
	}
	return nil
}

// GatedBanks models the background energy of a banked non-volatile
// region under the BPG scheme. The simulator reports phases; the model
// integrates leakage only over awake windows and reports each phase's
// outcome (transitions, awake bank-time, gated energy) to obs.Default().
type GatedBanks struct {
	Params PowerGateParams
	// BankLeak is the background power of one awake bank.
	BankLeak units.Power
	// TotalBanks counts all banks across all chips of the region.
	TotalBanks int
	// Ungated is the region power that gating cannot remove (shared I/O,
	// the BPG controllers themselves).
	Ungated units.Power

	stats GateStats
}

// GateStats accumulates what the gating did.
type GateStats struct {
	Transitions     int64      // bank wake+sleep pairs
	AwakeBankTime   units.Time // Σ (awake duration × banks awake)
	TotalTime       units.Time // wall-clock integrated
	GatedEnergy     units.Energy
	UngatedEnergy   units.Energy // what the same phases cost with no gating
	LatencyPenalty  units.Time   // unhidden wake latency added to execution
	TransitionSpend units.Energy // wake+sleep overhead energy
}

// CheckInvariants verifies the physical consistency of accumulated
// gating statistics: nothing negative, no more awake bank-time than
// totalBanks banks awake for the whole integrated time, and gating never
// costing more than leaving everything on plus the transition overheads
// it spent. A non-positive totalBanks skips the bank-time bound (caller
// does not know the geometry).
func (s GateStats) CheckInvariants(totalBanks int) error {
	if s.Transitions < 0 {
		return fmt.Errorf("mem: negative gate transitions %d", s.Transitions)
	}
	if s.AwakeBankTime < 0 || s.TotalTime < 0 || s.LatencyPenalty < 0 {
		return fmt.Errorf("mem: negative gate times %+v", s)
	}
	if s.GatedEnergy < 0 || s.UngatedEnergy < 0 || s.TransitionSpend < 0 {
		return fmt.Errorf("mem: negative gate energies %+v", s)
	}
	if s.Transitions == 0 && s.AwakeBankTime != 0 {
		return fmt.Errorf("mem: awake bank-time %v with zero transitions", s.AwakeBankTime)
	}
	const slack = 1 + 1e-9
	if totalBanks > 0 {
		if limit := s.TotalTime.Times(float64(totalBanks) * slack); s.AwakeBankTime > limit {
			return fmt.Errorf("mem: awake bank-time %v exceeds %d banks × total time %v",
				s.AwakeBankTime, totalBanks, s.TotalTime)
		}
	}
	if limit := (s.UngatedEnergy + s.TransitionSpend).Times(slack); s.GatedEnergy > limit {
		return fmt.Errorf("mem: gated energy %v exceeds ungated %v + transition spend %v",
			s.GatedEnergy, s.UngatedEnergy, s.TransitionSpend)
	}
	return nil
}

// NewGatedBanks builds the model.
func NewGatedBanks(p PowerGateParams, bankLeak units.Power, totalBanks int, ungated units.Power) (*GatedBanks, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if totalBanks <= 0 {
		return nil, fmt.Errorf("mem: non-positive bank count %d", totalBanks)
	}
	if bankLeak < 0 || ungated < 0 {
		return nil, fmt.Errorf("mem: negative leakage")
	}
	return &GatedBanks{Params: p, BankLeak: bankLeak, TotalBanks: totalBanks, Ungated: ungated}, nil
}

// Streaming accounts a phase of duration d in which the sequential edge
// stream sweeps across banksTouched banks one at a time ("usually only
// one bank per chip is active"). It returns the background energy under
// gating and the latency penalty (zero when predictive wake-up hides it).
func (g *GatedBanks) Streaming(d units.Time, banksTouched int) (units.Energy, units.Time) {
	if d < 0 {
		d = 0
	}
	if banksTouched < 1 {
		banksTouched = 1
	}
	if banksTouched > g.TotalBanks {
		banksTouched = g.TotalBanks
	}
	// One bank awake for the whole phase (they hand off), plus each
	// departed bank lingering awake for the idle timeout (bounded by the
	// phase itself), plus transition overheads.
	lingering := units.Time(float64(g.Params.IdleTimeout) * float64(banksTouched-1))
	if lingering > d.Times(float64(banksTouched-1)) {
		lingering = d.Times(float64(banksTouched - 1))
	}
	awakeBankTime := d + lingering
	leak := g.BankLeak.Over(awakeBankTime)
	trans := g.Params.WakeEnergy.Times(float64(banksTouched)) + g.Params.SleepEnergy.Times(float64(banksTouched))
	gated := leak + trans + g.Ungated.Over(d)

	var penalty units.Time
	if !g.Params.Predictive {
		penalty = g.Params.WakeLatency.Times(float64(banksTouched))
	}

	g.stats.Transitions += int64(banksTouched)
	g.stats.AwakeBankTime += awakeBankTime
	g.stats.TotalTime += d
	g.stats.GatedEnergy += gated
	g.stats.UngatedEnergy += g.ungatedOver(d)
	g.stats.TransitionSpend += trans
	g.stats.LatencyPenalty += penalty
	rec := obs.Default()
	rec.Count("mem.gate.transitions", int64(banksTouched))
	rec.PhaseTime("mem.gate.awake-bank", awakeBankTime)
	rec.PhaseEnergy("mem.gate.gated", gated)
	return gated, penalty
}

// Idle accounts a phase of duration d in which the region is untouched:
// every bank is gated, only the ungated share burns.
func (g *GatedBanks) Idle(d units.Time) units.Energy {
	if d < 0 {
		d = 0
	}
	gated := g.Ungated.Over(d)
	g.stats.TotalTime += d
	g.stats.GatedEnergy += gated
	g.stats.UngatedEnergy += g.ungatedOver(d)
	rec := obs.Default()
	rec.PhaseTime("mem.gate.idle", d)
	rec.PhaseEnergy("mem.gate.gated", gated)
	return gated
}

func (g *GatedBanks) ungatedOver(d units.Time) units.Energy {
	full := units.Power(float64(g.BankLeak)*float64(g.TotalBanks)) + g.Ungated
	return full.Over(d)
}

// Stats returns the accumulated gating statistics.
func (g *GatedBanks) Stats() GateStats { return g.stats }

// Saving returns the background energy avoided so far (ungated − gated).
func (g *GatedBanks) Saving() units.Energy {
	return g.stats.UngatedEnergy - g.stats.GatedEnergy
}

// BankWindow is one contiguous activity window of a bank, as produced by
// the request-level channel simulation.
type BankWindow struct {
	Bank       int
	Start, End units.Time
}

// ReplayGating computes the *exact* gated background outcome for a set
// of activity windows under the idle-timeout policy: a bank wakes at a
// window's start, stays awake through it, lingers for the idle timeout,
// and merges with the next window if it arrives inside the linger. It
// returns the integrated awake-bank time and the wake/sleep transition
// count — the quantities GatedBanks.Streaming approximates analytically
// (the tests hold the two against each other).
func ReplayGating(p PowerGateParams, windows []BankWindow) (awake units.Time, transitions int64, err error) {
	if verr := p.Validate(); verr != nil {
		return 0, 0, verr
	}
	perBank := map[int][]BankWindow{}
	for _, w := range windows {
		if w.End < w.Start {
			return 0, 0, fmt.Errorf("mem: window ends before it starts: %+v", w)
		}
		perBank[w.Bank] = append(perBank[w.Bank], w)
	}
	for _, ws := range perBank {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		cur := ws[0]
		curEnd := cur.End + p.IdleTimeout
		transitions++
		start := cur.Start
		for _, w := range ws[1:] {
			if w.Start <= curEnd {
				// Arrived while lingering: the bank never slept.
				if w.End+p.IdleTimeout > curEnd {
					curEnd = w.End + p.IdleTimeout
				}
				continue
			}
			awake += curEnd - start
			transitions++
			start = w.Start
			curEnd = w.End + p.IdleTimeout
		}
		awake += curEnd - start
	}
	return awake, transitions, nil
}
