package graphr

import (
	"fmt"
	"math"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/device/crossbar"
	"repro/internal/partition"
	"repro/internal/units"
)

func relEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if scale := math.Max(math.Abs(a), math.Abs(b)); scale > 1 {
		diff /= scale
	}
	return diff <= tol && !math.IsNaN(diff)
}

// CheckModelVsEmulation holds the GraphR cost model (Eq. 9–16) against
// independent recomputations and, for PageRank at the paper's block
// geometry, against the functional bit-sliced crossbar emulation: block
// occupancy must match a fresh scan, the compute-time decomposition must
// reproduce from the crossbar design point, the total-time identity must
// hold, and the quantized crossbar ranks must track the float64 oracle.
func CheckModelVsEmulation(cfg Config, w core.Workload) error {
	r, err := Simulate(cfg, w)
	if err != nil {
		return err
	}
	d := &r.Detail
	for _, t := range []struct {
		name string
		v    units.Time
	}{
		{"total time", r.Report.Time},
		{"compute time", d.ComputeTime},
		{"stream time", d.StreamTime},
		{"vertex time", d.VertexTime},
	} {
		if t.v < 0 || math.IsNaN(float64(t.v)) || math.IsInf(float64(t.v), 0) {
			return fmt.Errorf("graphr: %s is %v", t.name, t.v)
		}
	}
	if e := r.Report.Energy.Total(); e < 0 || math.IsNaN(float64(e)) {
		return fmt.Errorf("graphr: total energy is %v", e)
	}

	occ, err := partition.ComputeOccupancy(w.Graph, cfg.BlockDim)
	if err != nil {
		return err
	}
	if d.NonEmptyBlocks != occ.NonEmpty {
		return fmt.Errorf("graphr: model saw %d non-empty blocks, occupancy scan says %d",
			d.NonEmptyBlocks, occ.NonEmpty)
	}
	if !relEq(d.Navg, occ.AvgEdgesPerBlk, 1e-12) {
		return fmt.Errorf("graphr: model Navg %v, occupancy scan says %v", d.Navg, occ.AvgEdgesPerBlk)
	}

	// Recompute the Eq. 11/12 compute term from the crossbar design point.
	xbar, err := crossbar.New(cfg.Crossbar)
	if err != nil {
		return err
	}
	e := float64(w.Graph.NumEdges())
	blocks := float64(occ.NonEmpty)
	compute := xbar.ProgramBlock(1).Times(e)
	if w.Program.MVMBased() {
		compute = compute.Plus(xbar.MVM().Times(blocks))
	} else {
		pu := device.NewCMOSPU()
		compute = compute.Plus(xbar.RowWiseOps().Times(blocks)).Plus(pu.Op().Times(e))
	}
	wantCompute := units.Time(float64(compute.Latency) / float64(cfg.Parallel))
	const tol = 1e-9
	if !relEq(float64(d.ComputeTime), float64(wantCompute), tol) {
		return fmt.Errorf("graphr: compute time %v, Eq. 11/12 recomputation says %v", d.ComputeTime, wantCompute)
	}

	iterTime := units.MaxTime(d.ComputeTime, d.StreamTime) + d.VertexTime
	if !relEq(float64(r.Report.Time), float64(iterTime.Times(float64(d.Iterations))), tol) {
		return fmt.Errorf("graphr: total time %v, want iteration time %v × %d",
			r.Report.Time, iterTime, d.Iterations)
	}

	// Functional fidelity: run PageRank through the quantized crossbar
	// emulation at the published 16-bit/4-cell geometry and require the
	// analog path to track the exact ranks.
	if pr, ok := w.Program.(*algo.PageRank); ok && cfg.BlockDim == 8 {
		q, err := NewQuantizer(16, 4, 1)
		if err != nil {
			return err
		}
		ranks, maxRel, err := PageRankCrossbar(w.Graph, q, pr.Damping, 3)
		if err != nil {
			return err
		}
		if maxRel > 0.10 {
			return fmt.Errorf("graphr: 16-bit crossbar PageRank error %.4f exceeds 10%%", maxRel)
		}
		var sum float64
		for _, rank := range ranks {
			if rank < 0 || math.IsNaN(rank) {
				return fmt.Errorf("graphr: crossbar produced rank %v", rank)
			}
			sum += rank
		}
		if sum <= 0 || sum > 1.5 {
			return fmt.Errorf("graphr: crossbar rank mass %v outside (0, 1.5]", sum)
		}
	}
	return nil
}
