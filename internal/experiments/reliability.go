package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
)

// runReliability exercises the resilience layer end to end (extension;
// DESIGN.md "Resilience"): a raw-BER sweep of the seeded read-disturb
// process through the SECDED pipeline, the corrected / detected-
// uncorrectable / silent accounting at each rate, the EDP overhead the
// ECC machinery costs a fault-free workload, whole-bank failures
// absorbed by spare-bank remapping, and the analytic Eq. 1–16 view of
// the same ECC operating point (Model.WithEdgeRead). Every number is a
// pure function of the seed: rows are byte-identical at any worker
// count.
func runReliability(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Reliability: ReRAM fault injection, SECDED ECC, bank sparing (extension)")
	d := opt.datasets()[0]
	wl, err := workloadFor(d, "PR")
	if err != nil {
		return err
	}
	base, err := opt.simulate(core.HyVEOpt(), wl)
	if err != nil {
		return err
	}
	baseEDP := base.Report.Time.Seconds() * base.Report.Energy.Total().Joules()

	// Raw-BER sweep. 1e-4 is far above any plausible operating point —
	// it is there to populate the multi-bit columns, not to be survivable.
	bers := []float64{0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4}
	if opt.Quick {
		bers = []float64{0, 1e-6, 1e-5, 1e-4}
	}
	results := make([]*core.Result, len(bers))
	if err := opt.forEach(len(bers), func(i int) error {
		cfg := core.HyVEOpt()
		cfg.Name = "acc+HyVE-opt+secded"
		cfg.Fault = fault.Config{Enabled: true, Seed: 1, RawBER: bers[i], ECC: fault.ECCSECDED}
		r, err := opt.simulate(cfg, wl)
		results[i] = r
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s, PR, SECDED(72,64) on the edge stream, seed 1:\n", d.Name)
	t := newTable("raw BER", "injected bits", "corrected", "uncorrectable", "silent", "EDP overhead")
	var lastOverhead float64
	for i, r := range results {
		s := r.Detail.Fault
		edp := r.Report.Time.Seconds() * r.Report.Energy.Total().Joules()
		lastOverhead = 100 * (edp/baseEDP - 1)
		t.addf("%.0e|%d|%d|%d|%d|%+.3f%%",
			bers[i], s.Injected, s.Corrected, s.Uncorrectable, s.Silent, lastOverhead)
	}
	if err := opt.writeTable(w, "ber-sweep", t); err != nil {
		return err
	}
	opt.metric("reliability.edp_overhead_worst", lastOverhead, "%")

	// The same worst-case rate without a code: every error goes silent.
	worst := bers[len(bers)-1]
	noECC := core.HyVEOpt()
	noECC.Fault = fault.Config{Enabled: true, Seed: 1, RawBER: worst}
	nr, err := opt.simulate(noECC, wl)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("without ECC at BER %.0e: %d erroneous words, all silent (%d detected)",
		worst, nr.Detail.Fault.Silent, nr.Detail.Fault.Detected)
	fmt.Fprintln(w, line)
	opt.notef("%s", line)
	opt.metric("reliability.silent_words_no_ecc", float64(nr.Detail.Fault.Silent), "")

	// Whole-bank hard failures: spares absorb them one-for-one, the
	// spare replays the victim's gate schedule, and the run's time and
	// gating statistics are invariant.
	fmt.Fprintln(w, "\nbank sparing (gate schedule inherited by the spare):")
	bt := newTable("failed banks", "spare pool", "remapped", "run", "time vs clean")
	for _, failed := range []int{0, 1, 2} {
		cfg := core.HyVEOpt()
		cfg.Fault = fault.Config{Enabled: true, Seed: 1, FailedBanks: failed, SpareBanks: 4}
		r, err := opt.simulate(cfg, wl)
		if err != nil {
			return err
		}
		delta := "identical"
		if r.Report.Time != base.Report.Time {
			delta = fmt.Sprintf("%+.3f%%", 100*(r.Report.Time.Seconds()/base.Report.Time.Seconds()-1))
		}
		bt.addf("%d|%d|%d|%s|%s", failed, 4, r.Detail.Fault.BanksRemapped, "completes", delta)
	}
	// Exhausting the pool must refuse to complete, not degrade silently.
	lossCfg := core.HyVEOpt()
	lossCfg.Fault = fault.Config{Enabled: true, Seed: 1, FailedBanks: 1, SpareBanks: 0}
	if _, err := opt.simulate(lossCfg, wl); err != nil {
		bt.addf("%d|%d|%s|%s|%s", 1, 0, "-", "aborts (bank loss)", "-")
	} else {
		bt.addf("%d|%d|%s|%s|%s", 1, 0, "-", "UNEXPECTED PASS", "-")
	}
	if err := opt.writeTable(w, "bank-sparing", bt); err != nil {
		return err
	}

	// Analytic cross-check: fold the same ECC operating point into the
	// Eq. 1–16 decomposition via Model.WithEdgeRead and read the EDP
	// overhead off the closed form.
	m, err := core.AnalyticModel(core.HyVEOpt(), wl)
	if err != nil {
		return err
	}
	ecc := fault.SECDED(fault.DefaultWordBits)
	em := m.WithEdgeRead(ecc.Apply(m.C.EdgeRead))
	plainEDP := m.Time().Seconds() * m.Energy().Joules()
	eccEDP := em.Time().Seconds() * em.Energy().Joules()
	aOver := 100 * (eccEDP/plainEDP - 1)
	line = fmt.Sprintf("analytic Eq. 1–16 view: SECDED(72,64) edge reads cost %+.3f%% EDP", aOver)
	fmt.Fprintln(w, line)
	opt.notef("%s", line)
	opt.metric("reliability.edp_overhead_analytic", aOver, "%")
	return nil
}
