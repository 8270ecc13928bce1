package cache

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/device/nvmalt"
	"repro/internal/graph"
)

// goldenPoint names one point whose digest TestPointDigestGolden pins.
type goldenPoint struct {
	name string
	cfg  core.Config
	w    core.Workload
}

// goldenPoints builds the pinned points: every Table 2 dataset under PR
// and SSSP on hyve-opt and sd at a 4 MB SRAM override (as point.Spec
// resolves sram_mb 4), one converging PageRank, and one point on a
// custom edge device.
func goldenPoints(t testing.TB) []goldenPoint {
	t.Helper()
	workload := func(ds string, p algo.Program) core.Workload {
		d, err := graph.DatasetByName(ds)
		if err != nil {
			t.Fatal(err)
		}
		w, err := core.WorkloadFor(d, p)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var pts []goldenPoint
	for _, d := range graph.Datasets {
		for _, a := range []string{"PR", "SSSP"} {
			p, err := algo.ByName(a)
			if err != nil {
				t.Fatal(err)
			}
			w := workload(d.Name, p)
			for _, c := range []struct {
				name string
				new  func() core.Config
			}{{"hyve-opt", core.HyVEOpt}, {"sd", core.SRAMDRAM}} {
				cfg := c.new()
				if cfg.UseOnChipSRAM {
					cfg.SRAMBytes = 4 << 20
				}
				pts = append(pts, goldenPoint{d.Name + "/" + a + "/" + c.name + "/sram4", cfg, w})
			}
		}
	}
	pts = append(pts, goldenPoint{"YT/PR-converge-1e-6/hyve", core.HyVE(),
		workload("YT", algo.NewPageRankConverge(1e-6))})
	chip, err := nvmalt.New(nvmalt.Config{Kind: nvmalt.PCM, DensityGb: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.HyVEOpt()
	cfg.Name = "acc+HyVE-opt/PCM"
	cfg.CustomEdgeDevice = chip
	pts = append(pts, goldenPoint{"WK/PR/hyve-opt+PCM", cfg, workload("WK", algo.NewPageRank())})
	return pts
}

// TestPointDigestGolden pins the canonical digest of 22 points across
// commits. A digest names a point's on-disk store file, so a change to
// how fields are serialized that moves one orphans every stored result;
// such a change must bump DigestSchema and then update these strings.
func TestPointDigestGolden(t *testing.T) {
	want := map[string]string{
		"YT/PR/hyve-opt/sram4":     "befcd5010ea74e55056d29c92066b7f660ad263c04f5eb6dc90ebad20e6b5ec5",
		"YT/PR/sd/sram4":           "57e60198d4f43dd6985376f3249a763e949dafbbd0639e6d271f012273af43ef",
		"YT/SSSP/hyve-opt/sram4":   "4d34a79eeec738b3f14fe6fd77e1fbb643c7d9c129539c12d4d52cd6e87641de",
		"YT/SSSP/sd/sram4":         "8fa94995d7e39d852b13c190e653f4d3c38169c7aa2af4552a28e88e0143dc04",
		"WK/PR/hyve-opt/sram4":     "308cf97e4b382979e1f8b8f2dca44b7d424ffe643d292d4bfddd162b712dd289",
		"WK/PR/sd/sram4":           "5fcb4f4a75e9e91cbbe0657c015ddc1c83eaeb36faab98edc67ee7ebe35c10b9",
		"WK/SSSP/hyve-opt/sram4":   "8d01e55af227a22404f711441f9f4bfc2323c3308235c3b9f6dbac7494c365ce",
		"WK/SSSP/sd/sram4":         "8b32e1de40e6d85a9bcd237e84f3e300db1813658b33840cd3570a1a79d86869",
		"AS/PR/hyve-opt/sram4":     "8606b45a6a9bd70109bcf49de4649c322118d90fcc7bcd4a74b1c52ceaee24b0",
		"AS/PR/sd/sram4":           "605a36f7f0457ab6aa0af3390a50d68c01d5bf5588abb22a6a38003ce31c7c4b",
		"AS/SSSP/hyve-opt/sram4":   "bd892a1a6e0c01243f84ad095a7377110cd90a602e7ea1d61b1b2fc924ed60bc",
		"AS/SSSP/sd/sram4":         "4d17c7c6f34d49d875300c422b4b3d70bf356eee7b98daec37f6f9d7911f69b8",
		"LJ/PR/hyve-opt/sram4":     "062a607c1d3f0552981b63a3d6654b7e1304f570df4704f8fbb9c652efeed47c",
		"LJ/PR/sd/sram4":           "667177e4562c5eb095a659035010ad560e6e39567095e5057618aca153bb9a21",
		"LJ/SSSP/hyve-opt/sram4":   "d80c6224a01cb066edf42c399333016cd047a9385d28c7085f06b9b55d3ee2fe",
		"LJ/SSSP/sd/sram4":         "d5c18f46bb37717a3e332d39ad06446d4129d409dce74f2d685afea50c692358",
		"TW/PR/hyve-opt/sram4":     "b744a45a09b930a39f9339a607f49ef4f9936f586969dd5171984582ecfab2d3",
		"TW/PR/sd/sram4":           "f8354effbb357d52e2d5f70d4d3dfc4e88f3fb558bca0d88b9ab7184114f0ca4",
		"TW/SSSP/hyve-opt/sram4":   "610fda4258799892807fa298de19a1a1e49cf8315e385fedac64ff93019f3af6",
		"TW/SSSP/sd/sram4":         "1a7eef91682fdd284bfc8f21e321375c1bb8ad4d75e4bb7ea307253ba05234e3",
		"YT/PR-converge-1e-6/hyve": "b88d8300ec2f3651a087b887012c22a34440cee70f9d7e1a9906edef4ddea270",
		"WK/PR/hyve-opt+PCM":       "73fb05d0def2ff92548f66536b7154f9c9d7efe8d7b0a1b880e0f157e9cd03b6",
	}
	pts := goldenPoints(t)
	if len(pts) != len(want) {
		t.Fatalf("%d golden points, %d pinned digests", len(pts), len(want))
	}
	for _, p := range pts {
		got := mustDigest(t, p.cfg, p.w).String()
		if got != want[p.name] {
			t.Errorf("%s: digest %s, want %s", p.name, got, want[p.name])
		}
	}
}
