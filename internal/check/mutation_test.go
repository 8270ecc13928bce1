package check

// Mutation tests: the acceptance bar for the conformance harness is that
// a deliberately broken constant is caught. Each test takes a point that
// passes cleanly, corrupts one quantity the way a wrong constant or a
// dropped term would, and requires the relevant invariant to object.

import (
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/units"
)

// findPoint scans deterministic seeds for a point matching pred.
func findPoint(t *testing.T, pred func(*Point) bool) *Point {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		p, err := NewPoint(seed)
		if err != nil {
			t.Fatal(err)
		}
		if pred(p) {
			return p
		}
	}
	t.Fatal("no seed in [1,500) draws a matching point")
	return nil
}

// mutate re-checks a simulated point after corrupting a copy of its
// result, and fails the test unless CheckResult objects.
func mutate(t *testing.T, p *Point, name string, corrupt func(*core.Result)) {
	t.Helper()
	r, err := p.Sim()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckResult(p.Cfg, p.Workload, r); err != nil {
		t.Fatalf("clean result already fails: %v", err)
	}
	bad := *r
	corrupt(&bad)
	if err := core.CheckResult(p.Cfg, p.Workload, &bad); err == nil {
		t.Errorf("%s: corrupted result passed CheckResult", name)
	} else {
		t.Logf("%s caught: %v", name, err)
	}
}

func TestMutationEdgeBytes(t *testing.T) {
	p := findPoint(t, func(p *Point) bool { return true })
	mutate(t, p, "EdgeBytes+1", func(r *core.Result) { r.Detail.EdgeBytes++ })
}

func TestMutationProcessTime(t *testing.T) {
	p := findPoint(t, func(p *Point) bool { return true })
	// A doubled per-edge latency constant would land here: ProcessTime
	// moves but the run-time identity and Eq. 1 bounds do not move with it.
	mutate(t, p, "ProcessTime×2", func(r *core.Result) { r.Detail.ProcessTime *= 2 })
}

func TestMutationReportTime(t *testing.T) {
	p := findPoint(t, func(p *Point) bool { return true })
	mutate(t, p, "Report.Time+1ns", func(r *core.Result) { r.Report.Time += units.Nanosecond })
}

func TestMutationTraceTraffic(t *testing.T) {
	p := findPoint(t, func(p *Point) bool { return p.Cfg.UseOnChipSRAM })
	mutate(t, p, "SrcLoadBytes+8", func(r *core.Result) { r.Detail.SrcLoadBytes += 8 })
}

func TestMutationGateStats(t *testing.T) {
	p := findPoint(t, func(p *Point) bool { return p.Cfg.PowerGating })
	mutate(t, p, "Transitions→0", func(r *core.Result) { r.Detail.Gate.Transitions = 0 })
	mutate(t, p, "GatedEnergy×10", func(r *core.Result) {
		r.Detail.Gate.GatedEnergy = (r.Detail.Gate.UngatedEnergy+r.Detail.Gate.TransitionSpend)*2 + units.Picojoule
	})
}

func TestMutationGateStatsDirect(t *testing.T) {
	s := mem.GateStats{
		Transitions:   4,
		AwakeBankTime: 10 * units.Nanosecond,
		TotalTime:     100 * units.Nanosecond,
		GatedEnergy:   units.Picojoule,
		UngatedEnergy: 2 * units.Picojoule,
	}
	if err := s.CheckInvariants(8); err != nil {
		t.Fatalf("clean stats fail: %v", err)
	}
	bad := s
	bad.AwakeBankTime = s.TotalTime*8 + units.Nanosecond
	if err := bad.CheckInvariants(8); err == nil {
		t.Error("awake time beyond banks×total passed")
	}
	bad = s
	bad.Transitions = -1
	if err := bad.CheckInvariants(8); err == nil {
		t.Error("negative transition count passed")
	}
}

func TestMutationAnalyticModel(t *testing.T) {
	p := findPoint(t, func(p *Point) bool { return true })
	m, err := core.AnalyticModel(p.Cfg, p.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("clean model fails: %v", err)
	}
	bad := m
	bad.C.PU.Latency = -units.Picosecond
	if err := bad.CheckInvariants(); err == nil {
		t.Error("negative PU latency constant passed CheckInvariants")
	}
	bad = m
	bad.N.EdgeReads = -1
	if err := bad.CheckInvariants(); err == nil {
		t.Error("negative edge-read count passed CheckInvariants")
	}
}

func TestMutationCompareValues(t *testing.T) {
	got := []float64{1, 2, 3}
	want := []float64{1, 2, 3}
	if err := algo.CompareValues("v", got, want, 0); err != nil {
		t.Fatalf("identical values fail: %v", err)
	}
	got[1] += 1e-6
	err := algo.CompareValues("v", got, want, 1e-9)
	if err == nil {
		t.Fatal("drifted value passed CompareValues")
	}
	if !strings.Contains(err.Error(), "v") {
		t.Errorf("error does not name the series: %v", err)
	}
	if err := algo.CompareValues("v", []float64{1}, []float64{1, 2}, 0); err == nil {
		t.Fatal("length mismatch passed CompareValues")
	}
}
