package point

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSpecCoreConfig pins the name table and the SRAM rule.
func TestSpecCoreConfig(t *testing.T) {
	for _, name := range []string{"hyve", "hyve-opt", "sd", "dram", "reram"} {
		cfg, err := Spec{Config: name}.CoreConfig()
		if err != nil {
			t.Errorf("CoreConfig(%s): %v", name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("CoreConfig(%s) invalid: %v", name, err)
		}
	}

	def, err := Spec{Config: "hyve-opt"}.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if want := core.HyVEOpt(); !reflect.DeepEqual(def, want) {
		t.Errorf("SRAM 0 = %+v, want the preset %+v", def, want)
	}
	if two, _ := (Spec{Config: "hyve-opt", SRAMMB: 2}).CoreConfig(); !reflect.DeepEqual(two, def) {
		t.Error("SRAM 2 MB differs from the 2 MB default")
	}
	if four, _ := (Spec{Config: "sd", SRAMMB: 4}).CoreConfig(); four.SRAMBytes != 4<<20 {
		t.Errorf("SRAM 4 MB gave %d bytes", four.SRAMBytes)
	}
	if dram, _ := (Spec{Config: "dram", SRAMMB: 4}).CoreConfig(); !reflect.DeepEqual(dram, core.AccDRAM()) {
		t.Error("an SRAM size changed a configuration without on-chip SRAM")
	}

	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Config: "hyve", SRAMMB: -1}, "negative SRAM"},
		{Spec{Config: "dram", SRAMMB: -1}, "negative SRAM"},
		{Spec{Config: "hyve", SRAMMB: 1 << 43}, "overflows"},
		{Spec{Config: "hyve", SRAMMB: maxSRAMMB}, ""},
		{Spec{Config: "nope"}, "unknown config"},
		{Spec{Config: "graphr"}, "analytic baseline"},
		{Spec{Config: "cpu-opt"}, "analytic baseline"},
	} {
		_, err := tc.spec.CoreConfig()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%+v: %v", tc.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc.spec, err, tc.want)
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

func TestSweepValidate(t *testing.T) {
	ok := Sweep{Datasets: []string{"YT"}, Algos: []string{"PR"}, Configs: []string{"hyve-opt", "dram"}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sweep refused: %v", err)
	}
	withBaseline := ok
	withBaseline.Configs = []string{"hyve", "graphr", "cpu", "cpu-opt"}
	if err := withBaseline.Validate(); err == nil {
		t.Error("Validate accepted an analytic baseline")
	}
	if err := withBaseline.ValidateWithBaselines(); err != nil {
		t.Errorf("ValidateWithBaselines refused a baseline: %v", err)
	}
	onlyBaselines := withBaseline
	onlyBaselines.Configs, onlyBaselines.SRAMMB = []string{"graphr"}, -1
	if err := onlyBaselines.ValidateWithBaselines(); err == nil {
		t.Error("a baseline-only sweep skipped the SRAM rule")
	}
	for _, bad := range []Sweep{
		{Algos: []string{"PR"}, Configs: []string{"hyve"}},
		{Datasets: []string{"NOPE"}, Algos: []string{"PR"}, Configs: []string{"hyve"}},
		{Datasets: []string{"YT"}, Algos: []string{"NOPE"}, Configs: []string{"hyve"}},
		{Datasets: []string{"YT"}, Algos: []string{"PR"}, Configs: []string{"hyve", "nope"}},
		{Datasets: []string{"YT"}, Algos: []string{"PR"}, Configs: []string{"hyve"}, SRAMMB: -5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid sweep %+v accepted", bad)
		}
	}
}

// FuzzSweep checks the boundary: for any lists and SRAM size, Validate
// either refuses the sweep, or At enumerates the whole cross product
// dataset-major and every point resolves to a valid core.Config.
func FuzzSweep(f *testing.F) {
	f.Add("YT,WK", "PR,BFS", "hyve-opt,sd,dram", int64(0))
	f.Add("YT", "SSSP", "reram", int64(4))
	f.Add("YT", "PR", "hyve", int64(-1))
	f.Add("YT", "PR", "hyve", int64(1)<<43)
	f.Add("NOPE", "PR", "graphr", int64(2))
	f.Add(",", "CC", "hyve", int64(1))
	f.Fuzz(func(t *testing.T, datasets, algos, configs string, sramMB int64) {
		sw := Sweep{
			Datasets: SplitList(datasets),
			Algos:    SplitList(algos),
			Configs:  SplitList(configs),
			SRAMMB:   sramMB,
		}
		if sw.Validate() != nil {
			return
		}
		n := sw.Len()
		if want := len(sw.Datasets) * len(sw.Algos) * len(sw.Configs); n != want || n <= 0 {
			t.Fatalf("Len = %d, want %d", n, want)
		}
		i := 0
		for _, d := range sw.Datasets {
			for _, a := range sw.Algos {
				for _, c := range sw.Configs {
					want := Spec{Dataset: d, Algo: a, Config: c, SRAMMB: sramMB}
					if got := sw.At(i); got != want {
						t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
					}
					cfg, err := want.CoreConfig()
					if err != nil {
						t.Fatalf("validated point %+v does not resolve: %v", want, err)
					}
					if err := cfg.Validate(); err != nil {
						t.Fatalf("validated point %+v: %v", want, err)
					}
					i++
				}
			}
		}
	})
}
