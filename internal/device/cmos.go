package device

import "repro/internal/units"

// CMOSPU models HyVE's conventional CMOS processing unit. The paper's
// operating point is a pipelined 32-bit floating-point multiplier
// (zipcores datasheet): 18.783 ns latency, 3.7 pJ per operation, with
// the note that "the latency of a CMOS multiplier can be further reduced
// by introducing pipelining" — so per-edge *throughput* is one op per
// pipeline stage while *latency* is the full datasheet figure.
type CMOSPU struct {
	// OpLatency is the end-to-end latency of one edge-update operation.
	OpLatency units.Time
	// OpEnergy is the energy of one edge-update operation.
	OpEnergy units.Energy
	// PipelineStages divides OpLatency to give the issue interval of a
	// fully pipelined unit. 1 disables pipelining.
	PipelineStages int
	// CtrlEnergy is the per-edge control and datapath overhead beyond
	// the arithmetic op itself: sequencing, queues, address generation —
	// the "other logic units" of the paper's Fig. 17 breakdown.
	CtrlEnergy units.Energy
	// Leakage is the static power of one PU's logic.
	Leakage units.Power
}

// NewCMOSPU returns the paper's PU operating point.
func NewCMOSPU() *CMOSPU {
	return &CMOSPU{
		OpLatency:      units.Time(18.783 * float64(units.Nanosecond)),
		OpEnergy:       units.Energy(3.7 * float64(units.Picojoule)),
		PipelineStages: 10,
		CtrlEnergy:     units.Energy(12 * float64(units.Picojoule)),
		Leakage:        units.Power(2 * float64(units.Milliwatt)),
	}
}

// Op returns the cost of processing one edge: throughput-limited latency
// (issue interval) and full per-op energy. Use OpLatency for the fill
// latency of the first edge in a stream.
func (p *CMOSPU) Op() Cost {
	stages := p.PipelineStages
	if stages < 1 {
		stages = 1
	}
	return Cost{
		Latency: units.Time(float64(p.OpLatency) / float64(stages)),
		Energy:  p.OpEnergy,
	}
}
