// Package point is the one model of a simulation point — a (dataset,
// algorithm, configuration, SRAM size) coordinate of the paper's
// evaluation grid — and of the dataset-major sweep over a cross product
// of them. Every front door (hyve-sim, hyve-prep, hyve-trace, hyve-serve,
// the cluster jobs) names and resolves its points here, so one name
// table, one SRAM rule and one validation decide what runs, and an
// invalid spec is rejected at the boundary before any point executes.
package point

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/graph"
)

// presets is the only name → core configuration table: the five
// memory hierarchies of Fig. 16.
var presets = map[string]func() core.Config{
	"hyve": core.HyVE, "hyve-opt": core.HyVEOpt, "sd": core.SRAMDRAM,
	"dram": core.AccDRAM, "reram": core.AccReRAM,
}

// isBaseline reports whether name is an analytic baseline configuration
// (GraphR or a CPU framework): it has no core.Config and therefore no
// canonical result document.
func isBaseline(name string) bool {
	return name == "graphr" || name == "cpu" || name == "cpu-opt"
}

// maxSRAMMB is the largest SRAM size whose byte count fits an int64.
const maxSRAMMB = math.MaxInt64 >> 20

// checkSRAM is the SRAM rule: 0 keeps the preset's default, a positive
// size replaces it, and a negative size or one whose byte count
// overflows is an error.
func checkSRAM(mb int64) error {
	if mb < 0 {
		return fmt.Errorf("point: negative SRAM size %d MB", mb)
	}
	if mb > maxSRAMMB {
		return fmt.Errorf("point: SRAM size %d MB overflows (max %d MB)", mb, int64(maxSRAMMB))
	}
	return nil
}

// Spec names one simulation point.
type Spec struct {
	Dataset string
	Algo    string
	Config  string
	// SRAMMB is the per-PU on-chip vertex memory in MB for
	// configurations that have one; 0 keeps the preset's default (2 MB).
	SRAMMB int64
}

// CoreConfig resolves the configuration name and SRAM size into a
// validated core.Config. It touches no graph.
func (s Spec) CoreConfig() (core.Config, error) {
	if err := checkSRAM(s.SRAMMB); err != nil {
		return core.Config{}, err
	}
	preset, ok := presets[s.Config]
	switch {
	case !ok && isBaseline(s.Config):
		return core.Config{}, fmt.Errorf("point: config %q is an analytic baseline with no canonical result document (want hyve, hyve-opt, sd, dram, reram)", s.Config)
	case !ok:
		return core.Config{}, fmt.Errorf("point: unknown config %q (want hyve, hyve-opt, sd, dram, reram, or the baselines graphr, cpu, cpu-opt)", s.Config)
	}
	cfg := preset()
	if cfg.UseOnChipSRAM && s.SRAMMB > 0 {
		cfg.SRAMBytes = s.SRAMMB << 20
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("point: config %s: %w", s.Config, err)
	}
	return cfg, nil
}

// Workload loads the point's dataset and binds its program.
func (s Spec) Workload() (core.Workload, error) {
	d, err := graph.DatasetByName(s.Dataset)
	if err != nil {
		return core.Workload{}, err
	}
	p, err := algo.ByName(s.Algo)
	if err != nil {
		return core.Workload{}, err
	}
	return core.WorkloadFor(d, p)
}

// Resolve builds the executable (Config, Workload) pair of a core
// point. The configuration is checked first, so a bad one fails before
// any dataset is loaded.
func (s Spec) Resolve() (core.Config, core.Workload, error) {
	cfg, err := s.CoreConfig()
	if err != nil {
		return core.Config{}, core.Workload{}, err
	}
	w, err := s.Workload()
	return cfg, w, err
}

// Sweep is the cross product Datasets × Algos × Configs at one SRAM
// size, enumerated dataset-major, then algorithm, then configuration.
// Its JSON form is the sim body of a cluster spec.
type Sweep struct {
	Datasets []string `json:"datasets"`
	Algos    []string `json:"algos"`
	Configs  []string `json:"configs"`
	SRAMMB   int64    `json:"sram_mb"`
}

// Len is the number of points in the sweep.
func (s Sweep) Len() int { return len(s.Datasets) * len(s.Algos) * len(s.Configs) }

// At returns point i, 0 ≤ i < Len(): (Datasets[i/(A·C)], Algos[i/C%A],
// Configs[i%C]) for A algorithms and C configurations.
func (s Sweep) At(i int) Spec {
	a, c := len(s.Algos), len(s.Configs)
	return Spec{
		Dataset: s.Datasets[i/(a*c)],
		Algo:    s.Algos[i/c%a],
		Config:  s.Configs[i%c],
		SRAMMB:  s.SRAMMB,
	}
}

// Validate checks the sweep for the doors that emit canonical result
// documents: every list is nonempty, the point count fits an int, the
// SRAM size obeys the rule, and every name resolves — each
// configuration to a core.Config that passes core.Config.Validate.
func (s Sweep) Validate() error { return s.validate(false) }

// ValidateWithBaselines is Validate for hyve-sim's report modes, which
// also run the analytic baselines (graphr, cpu, cpu-opt).
func (s Sweep) ValidateWithBaselines() error { return s.validate(true) }

func (s Sweep) validate(withBaselines bool) error {
	d, a, c := len(s.Datasets), len(s.Algos), len(s.Configs)
	if d == 0 || a == 0 || c == 0 {
		return errors.New("point: a sweep needs at least one dataset, algorithm, and configuration")
	}
	if a > math.MaxInt/c || d > math.MaxInt/(a*c) {
		return fmt.Errorf("point: sweep of %d×%d×%d points is too large", d, a, c)
	}
	if err := checkSRAM(s.SRAMMB); err != nil {
		return err
	}
	for _, name := range s.Datasets {
		if _, err := graph.DatasetByName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Algos {
		if _, err := algo.ByName(name); err != nil {
			return err
		}
	}
	for _, name := range s.Configs {
		if withBaselines && isBaseline(name) {
			continue
		}
		if _, err := (Spec{Config: name, SRAMMB: s.SRAMMB}).CoreConfig(); err != nil {
			return err
		}
	}
	return nil
}

// SplitList parses a comma-separated list (a flag or query value),
// dropping empty items so "YT," and "YT" mean the same thing.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
