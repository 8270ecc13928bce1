package experiments

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func runQuick(t *testing.T, id string) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Options{Quick: true}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatalf("%s produced no output", id)
	}
	return out
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("registry has %d experiments, want 16 paper artifacts + 8 extensions", len(all))
	}
	paper := 0
	for _, e := range all {
		if !strings.Contains(e.Title, "(extension)") {
			paper++
		}
	}
	if paper != 16 {
		t.Fatalf("%d paper artifacts, want 16 (every table and figure)", paper)
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(e.ID); err != nil {
			t.Errorf("ByID(%s): %v", e.ID, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// grabFloats extracts all decimal numbers from an output line selection.
func grabFloats(t *testing.T, out, linePattern string) []float64 {
	t.Helper()
	re := regexp.MustCompile(linePattern)
	num := regexp.MustCompile(`-?\d+\.?\d*`)
	var vals []float64
	for _, line := range strings.Split(out, "\n") {
		if !re.MatchString(line) {
			continue
		}
		for _, m := range num.FindAllString(line, -1) {
			v, err := strconv.ParseFloat(m, 64)
			if err == nil {
				vals = append(vals, v)
			}
		}
	}
	return vals
}

func TestTable1NavgMatchesPaper(t *testing.T) {
	out := runQuick(t, "table1")
	paper := map[string]float64{"YT": 1.44, "WK": 1.23, "AS": 2.38, "LJ": 1.49, "TW": 1.73}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 4 {
			continue
		}
		want, ok := paper[fields[0]]
		if !ok {
			continue
		}
		rows++
		got, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatalf("bad Navg cell %q", fields[2])
		}
		if got < want-0.15 || got > want+0.15 {
			t.Errorf("%s: Navg %.2f, paper %.2f (fitted generators should land within 0.15)", fields[0], got, want)
		}
	}
	if rows == 0 {
		t.Fatalf("no data rows:\n%s", out)
	}
}

func TestTable3PicksEnergyOptimized512(t *testing.T) {
	out := runQuick(t, "table3")
	if !strings.Contains(out, "chosen design: energy-optimized / 512-bit") {
		t.Errorf("wrong chosen design:\n%s", out)
	}
	if !strings.Contains(out, "102.07") || !strings.Contains(out, "660.23") {
		t.Errorf("Table 3 operating points missing:\n%s", out)
	}
}

func TestTable4HasAllCombos(t *testing.T) {
	out := runQuick(t, "table4")
	for _, combo := range []string{
		"w/o power-gating, w/o sharing",
		"w/o power-gating, w/ sharing",
		"w/ power-gating, w/o sharing",
		"w/ power-gating, w/ sharing",
	} {
		if !strings.Contains(out, combo) {
			t.Errorf("missing combo %q", combo)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	out := runQuick(t, "fig9")
	// Sequential read rows: delay < 1 (DRAM faster), energy > 1, EDP > 1.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "sequential read") {
			continue
		}
		f := grabFloats(t, line, `.`)
		// last three are delay, energy, EDP (first numbers are 100, density)
		n := len(f)
		delay, energy, edp := f[n-3], f[n-2], f[n-1]
		if delay >= 1 {
			t.Errorf("seq read delay ratio %.3f not < 1 (DRAM should be faster): %s", delay, line)
		}
		if energy <= 1 || edp <= 1 {
			t.Errorf("seq read energy/EDP ratio %.3f/%.3f not > 1 (ReRAM should win): %s", energy, edp, line)
		}
	}
	// Sequential write rows: EDP < 1 (DRAM wins writes).
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "sequential write") {
			continue
		}
		f := grabFloats(t, line, `.`)
		if edp := f[len(f)-1]; edp >= 1 {
			t.Errorf("seq write EDP ratio %.3f not < 1: %s", edp, line)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	out := runQuick(t, "fig10")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^(GraphR|HyVE)\s`)
		if len(f) < 3 {
			continue
		}
		ratios := f[len(f)-3:]
		for _, r := range ratios {
			if strings.HasPrefix(line, "HyVE") && r >= 1 {
				t.Errorf("HyVE DRAM/ReRAM EDP %.3f not < 1 (DRAM should win): %s", r, line)
			}
			if strings.HasPrefix(line, "GraphR") && r <= 1 {
				t.Errorf("GraphR DRAM/ReRAM EDP %.3f not > 1 (ReRAM should win): %s", r, line)
			}
		}
	}
}

func TestFig11HyVEWins(t *testing.T) {
	out := runQuick(t, "fig11")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) == 0 {
			continue
		}
		// reads ratio: GraphR reads far more vertices.
		if f[0] <= 1 {
			t.Errorf("GraphR/HyVE read count %.2f not > 1: %s", f[0], line)
		}
		// All EDP ratios (cols 5 and 8 of the numeric row) favour HyVE.
		if f[4] <= 1 || f[7] <= 1 {
			t.Errorf("EDP ratios %.2f/%.2f not > 1: %s", f[4], f[7], line)
		}
	}
}

// Fig. 12's shape: speed is flat while the counting sort's P² cursors
// fit one core's L2 and falls from 64² blocks on, further at each step.
func TestFig12SpeedDegradesWithBlocks(t *testing.T) {
	out := runQuick(t, "fig12")
	var ps []int
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dataset") {
			for _, col := range strings.Fields(line)[1:] {
				p, err := strconv.Atoi(strings.TrimSuffix(col, "²"))
				if err != nil {
					t.Fatalf("header %q: %v", line, err)
				}
				ps = append(ps, p)
			}
			if len(ps) == 0 || ps[0] >= 64 {
				t.Fatalf("no block count below 64² to normalize to: %q", line)
			}
			continue
		}
		f := grabFloats(t, line, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) == 0 {
			continue
		}
		rows++
		if len(f) != len(ps) {
			t.Fatalf("row %q has %d values for %d block counts", line, len(f), len(ps))
		}
		for i, p := range ps {
			switch {
			case p < 64 && f[i] != 1:
				t.Errorf("speed at %d² is %.2f, want the flat 1.00: %s", p, f[i], line)
			case p >= 64 && !(f[i] < f[i-1]):
				t.Errorf("speed at %d² (%.2f) does not fall below %d²'s: %s", p, f[i], ps[i-1], line)
			}
		}
	}
	if rows == 0 {
		t.Fatalf("no rows to check:\n%s", out)
	}
}

func TestFig13SLCWins(t *testing.T) {
	out := runQuick(t, "fig13")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) != 3 {
			continue
		}
		if !(f[0] > f[1] && f[1] > f[2]) {
			t.Errorf("cell-bit efficiency not decreasing (SLC should win): %s", line)
		}
	}
}

func TestFig14ImprovementAboveOne(t *testing.T) {
	out := runQuick(t, "fig14")
	if !strings.Contains(out, "overall mean") {
		t.Fatalf("missing summary:\n%s", out)
	}
	f := grabFloats(t, out, `overall mean`)
	if len(f) == 0 || f[0] <= 1 {
		t.Errorf("data sharing mean improvement %v not > 1", f)
	}
}

func TestFig15ImprovementAboveOne(t *testing.T) {
	out := runQuick(t, "fig15")
	f := grabFloats(t, out, `overall mean`)
	if len(f) == 0 || f[0] <= 1 {
		t.Errorf("power gating mean improvement %v not > 1", f)
	}
}

func TestFig16OrderingAndGap(t *testing.T) {
	out := runQuick(t, "fig16")
	for _, want := range fig16Order {
		if !strings.Contains(out, want) {
			t.Errorf("missing configuration %s", want)
		}
	}
	// The improvement summary must show >10x over the CPU baselines.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "CPU+DRAM ") || strings.Contains(line, "CPU+DRAM-opt") {
			f := grabFloats(t, line, `CPU`)
			if len(f) > 0 && f[len(f)-1] < 10 {
				t.Errorf("CPU gap %.1fx implausibly small: %s", f[len(f)-1], line)
			}
		}
	}
}

func TestFig17MemoryShareDrops(t *testing.T) {
	out := runQuick(t, "fig17")
	if !strings.Contains(out, "memory energy reduction") {
		t.Fatalf("missing reduction summary:\n%s", out)
	}
	f := grabFloats(t, out, `memory energy reduction`)
	if len(f) == 0 || f[0] <= 0 {
		t.Errorf("memory reduction %v not positive", f)
	}
}

func TestFig18NearUnity(t *testing.T) {
	out := runQuick(t, "fig18")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `geomean`)
		if len(f) == 0 {
			continue
		}
		r := f[len(f)-1]
		if r < 0.5 || r > 1.1 {
			t.Errorf("SD/HyVE time geomean %.3f far from unity: %s", r, line)
		}
	}
}

func TestFig19GraphRSlower(t *testing.T) {
	out := runQuick(t, "fig19")
	f := grabFloats(t, out, `^mean`)
	if len(f) == 0 || f[0] <= 1 {
		t.Errorf("GraphR/HyVE preprocessing ratio %v not > 1\n%s", f, out)
	}
}

func TestFig20HyVEFaster(t *testing.T) {
	out := runQuick(t, "fig20")
	f := grabFloats(t, out, `^mean`)
	if len(f) == 0 || f[0] <= 1 {
		t.Errorf("HyVE/GraphR dynamic ratio %v not > 1\n%s", f, out)
	}
}

func TestFig21HyVEWinsAllThree(t *testing.T) {
	out := runQuick(t, "fig21")
	f := grabFloats(t, out, `^means`)
	if len(f) < 6 {
		t.Fatalf("summary incomplete: %v\n%s", f, out)
	}
	// Layout: delay, 5.12, energy, 2.83, EDP, 17.63 — measured are at
	// even positions 0,2,4.
	if f[0] <= 1 || f[2] <= 1 || f[4] <= 1 {
		t.Errorf("GraphR/HyVE means not all > 1: delay %.2f energy %.2f EDP %.2f", f[0], f[2], f[4])
	}
}

func TestAblationInterleave(t *testing.T) {
	out := runQuick(t, "ablation-interleave")
	if !strings.Contains(out, "bank-interleave") || !strings.Contains(out, "subbank-interleave") {
		t.Fatalf("missing policies:\n%s", out)
	}
	f := grabFloats(t, out, `cutting awake bank-time`)
	if len(f) < 2 {
		t.Fatalf("missing summary:\n%s", out)
	}
	bwPct, awake := f[0], f[1]
	if bwPct < 90 {
		t.Errorf("subbank interleaving lost too much bandwidth: %.1f%%", bwPct)
	}
	if awake <= 2 {
		t.Errorf("awake-bank-time reduction %.1fx implausibly small", awake)
	}
}

func TestAblationNVMReRAMCompetitive(t *testing.T) {
	out := runQuick(t, "ablation-nvm")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, out, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) < 4 {
			continue
		}
		reram, pcm := f[0], f[1]
		if reram <= pcm {
			t.Errorf("ReRAM %f not above PCM %f (write-cheap reads should win): %s", reram, pcm, line)
		}
	}
}

func TestAblationGateTimeoutRuns(t *testing.T) {
	out := runQuick(t, "ablation-gate-timeout")
	f := grabFloats(t, out, `^(YT|WK|AS|LJ|TW)\s`)
	if len(f) < 5 {
		t.Fatalf("timeout sweep incomplete:\n%s", out)
	}
	for _, v := range f {
		if v <= 0 {
			t.Errorf("non-positive efficiency in sweep:\n%s", out)
		}
	}
}

func TestAblationRouterInsensitive(t *testing.T) {
	out := runQuick(t, "ablation-router")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) < 5 {
			continue
		}
		// Sharing should win at every reroute cost in the sweep.
		for _, v := range f {
			if v <= 1 {
				t.Errorf("sharing improvement %.2f not > 1 somewhere in sweep: %s", v, line)
			}
		}
		// And the paper's 5-10 cycle range should be within 5% of free.
		if f[1] < f[0]*0.95 {
			t.Errorf("5-cycle reroute already costly: %s", line)
		}
	}
}

func TestAblationPrecisionDegradesWithFewerBits(t *testing.T) {
	out := runQuick(t, "ablation-precision")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) != 3 {
			continue
		}
		if !(f[0] > f[1] && f[1] > f[2]) {
			t.Errorf("precision error not decreasing with width: %v", f)
		}
		if f[2] > 0.05 {
			t.Errorf("16-bit error %.4f above 5%%", f[2])
		}
	}
}

func TestAblationModelEdgeCentricWins(t *testing.T) {
	out := runQuick(t, "ablation-model")
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^(YT|WK|AS|LJ|TW)\s`)
		if len(f) < 2 {
			continue
		}
		// First number: traversal ratio ec/vc > 1 (vc's frontier saves
		// traversals); last: total energy ratio ec/vc < 1 (ec still wins).
		if f[0] <= 1 {
			t.Errorf("traversal ratio %.2f not > 1: %s", f[0], line)
		}
		if f[len(f)-1] >= 1 {
			t.Errorf("energy ratio %.2f not < 1 (edge-centric should win): %s", f[len(f)-1], line)
		}
	}
}

func TestAblationTopologyHyVEAlwaysWins(t *testing.T) {
	out := runQuick(t, "ablation-topology")
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "x") || strings.HasPrefix(line, "topology") {
			continue
		}
		f := grabFloats(t, line, `^(rmat|small-world|pref-attach|uniform)\s`)
		if len(f) < 4 {
			continue
		}
		rows++
		if ratio := f[len(f)-1]; ratio <= 1 {
			t.Errorf("HyVE-opt/SD ratio %.2f not > 1: %s", ratio, line)
		}
	}
	if rows == 0 {
		t.Fatalf("no topology rows:\n%s", out)
	}
}

// TestReliabilityShape pins the qualitative content of the reliability
// sweep: the zero-BER row injects nothing and costs nothing beyond the
// code itself, injected counts grow with BER, SECDED accounts every
// detected word, the unprotected run leaves all errors silent, and the
// spare pool both absorbs failures and refuses to overcommit.
func TestReliabilityShape(t *testing.T) {
	out := runQuick(t, "reliability")
	var injected []float64
	for _, line := range strings.Split(out, "\n") {
		f := grabFloats(t, line, `^[0-9]e[+-]\d+\s|^0e\+00\s`)
		if len(f) < 5 {
			continue
		}
		// f[0] is the BER mantissa; f[1] the exponent or injected count —
		// rely on column order instead: fields[1] is "injected bits".
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad injected cell %q in %q", fields[1], line)
		}
		injected = append(injected, v)
	}
	if len(injected) < 3 {
		t.Fatalf("too few BER rows:\n%s", out)
	}
	if injected[0] != 0 {
		t.Errorf("zero-BER row injected %v bits", injected[0])
	}
	for i := 1; i < len(injected); i++ {
		if injected[i] < injected[i-1] {
			t.Errorf("injected bits not monotone in BER: %v", injected)
		}
	}
	if injected[len(injected)-1] == 0 {
		t.Errorf("worst-case BER injected nothing:\n%s", out)
	}
	if !strings.Contains(out, "all silent") {
		t.Errorf("missing no-ECC silent-error line:\n%s", out)
	}
	if !strings.Contains(out, "aborts (bank loss)") {
		t.Errorf("missing bank-loss abort row:\n%s", out)
	}
	if strings.Contains(out, "UNEXPECTED PASS") {
		t.Errorf("run with exhausted spare pool completed:\n%s", out)
	}
	if !strings.Contains(out, "analytic Eq. 1–16 view") {
		t.Errorf("missing analytic cross-check:\n%s", out)
	}
}
