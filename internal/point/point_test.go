package point

import (
	"reflect"
	"testing"
)

func TestConfig(t *testing.T) {
	if got, want := Names(), []string{"hyve", "hyve-opt", "sd", "dram", "reram"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		cfg, err := Config(name)
		if err != nil {
			t.Errorf("Config(%s): %v", name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Config(%s) invalid: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "graphr", "cpu", "cpu-opt"} {
		if _, err := Config(name); err == nil {
			t.Errorf("Config(%s) accepted: only core configurations are registered", name)
		}
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"YT", []string{"YT"}},
		{"YT,WK,LJ", []string{"YT", "WK", "LJ"}},
		{"YT, WK", []string{"YT", "WK"}},
		{"YT,", []string{"YT"}},
		{"", nil},
	} {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestSweepAt checks the dataset-major index against the nested loops
// it stands for, on uneven dimensions so a swapped divisor shows.
func TestSweepAt(t *testing.T) {
	sw := Sweep{
		Datasets: []string{"YT", "WK"},
		Algos:    []string{"PR", "BFS", "CC"},
		Configs:  []string{"hyve", "hyve-opt", "sd", "dram"},
		SRAMMB:   4,
	}
	if sw.Len() != 24 {
		t.Fatalf("Len() = %d, want 24", sw.Len())
	}
	i := 0
	for _, d := range sw.Datasets {
		for _, a := range sw.Algos {
			for _, c := range sw.Configs {
				got, err := sw.At(i)
				if err != nil {
					t.Fatalf("At(%d): %v", i, err)
				}
				if want := (Spec{Dataset: d, Algo: a, Config: c, SRAMMB: 4}); got != want {
					t.Errorf("At(%d) = %+v, want %+v", i, got, want)
				}
				i++
			}
		}
	}
	for _, bad := range []int{-1, 24, 1 << 40} {
		if _, err := sw.At(bad); err == nil {
			t.Errorf("At(%d) accepted an index outside the sweep", bad)
		}
	}
	if _, err := (Sweep{Datasets: []string{"YT"}, Algos: []string{"PR"}}).At(0); err == nil {
		t.Error("At(0) accepted on an empty sweep")
	}
}

func TestSpecParse(t *testing.T) {
	got, err := Spec{Dataset: "com-youtube", Algo: "PR", Config: "hyve"}.Parse()
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != "YT" {
		t.Errorf("Parse kept dataset %q, want the short name YT", got.Dataset)
	}
	for _, tc := range []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: 4}, true},
		{Spec{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: maxSRAMMB}, true},
		{Spec{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: maxSRAMMB + 1}, false},
		{Spec{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: 17592186044416}, false},
		{Spec{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: -1}, false},
		{Spec{Dataset: "NOPE", Algo: "PR", Config: "hyve"}, false},
		{Spec{Dataset: "YT", Algo: "NOPE", Config: "hyve"}, false},
		{Spec{Dataset: "YT", Algo: "PR", Config: "graphr"}, false},
	} {
		if _, err := tc.spec.Parse(); (err == nil) != tc.ok {
			t.Errorf("Parse(%+v) error = %v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
	if _, err := (Sweep{Datasets: []string{"YT"}, Algos: []string{"PR"}}).Specs(); err == nil {
		t.Error("Specs accepted a sweep with no configurations")
	}
}

// TestResolveSRAM pins the one SRAM rule: 0 keeps the configuration
// default, a positive value sets the capacity in MB, and configurations
// without on-chip memory ignore it.
func TestResolveSRAM(t *testing.T) {
	for _, tc := range []struct {
		config string
		sramMB int64
		want   int64
	}{
		{"hyve", 0, 2 << 20},
		{"hyve-opt", 4, 4 << 20},
		{"dram", 4, 0},
	} {
		cfg, w, err := Spec{Dataset: "YT", Algo: "PR", Config: tc.config, SRAMMB: tc.sramMB}.Resolve()
		if err != nil {
			t.Fatalf("Resolve(%s, %d): %v", tc.config, tc.sramMB, err)
		}
		if cfg.SRAMBytes != tc.want {
			t.Errorf("Resolve(%s, %d): SRAMBytes = %d, want %d", tc.config, tc.sramMB, cfg.SRAMBytes, tc.want)
		}
		if w.DatasetName != "YT" || w.Program.Name() != "PR" {
			t.Errorf("Resolve(%s): workload %s/%s, want YT/PR", tc.config, w.DatasetName, w.Program.Name())
		}
	}
	if _, _, err := (Spec{Dataset: "YT", Algo: "PR", Config: "hyve", SRAMMB: -1}).Resolve(); err == nil {
		t.Error("Resolve accepted a negative SRAM override")
	}
}
