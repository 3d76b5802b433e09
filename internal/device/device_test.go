package device

import (
	"testing"

	"repro/internal/units"
)

// fakeMem is a trivially costed memory for exercising the helpers.
type fakeMem struct{ line int }

func (f fakeMem) Name() string            { return "fake" }
func (f fakeMem) LineBytes() int          { return f.line }
func (f fakeMem) CapacityBytes() int64    { return 1 << 20 }
func (f fakeMem) Background() units.Power { return 0 }
func (f fakeMem) Read(seq bool) Cost {
	if seq {
		return Cost{Latency: 1 * units.Nanosecond, Energy: 10}
	}
	return Cost{Latency: 5 * units.Nanosecond, Energy: 20}
}
func (f fakeMem) Write(seq bool) Cost {
	if seq {
		return Cost{Latency: 2 * units.Nanosecond, Energy: 15}
	}
	return Cost{Latency: 7 * units.Nanosecond, Energy: 30}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{Latency: units.Nanosecond, Energy: 2}
	b := Cost{Latency: 3 * units.Nanosecond, Energy: 5}
	sum := a.Plus(b)
	if sum.Latency != 4*units.Nanosecond || sum.Energy != 7 {
		t.Errorf("Plus = %v", sum)
	}
	scaled := a.Times(2.5)
	if scaled.Latency != units.Time(2500) || scaled.Energy != 5 {
		t.Errorf("Times = %v", scaled)
	}
	if got := a.EDP(); got != units.EDPOf(2, units.Nanosecond) {
		t.Errorf("EDP = %v", got)
	}
}

func TestSweepRoundsUpToLines(t *testing.T) {
	m := fakeMem{line: 64}
	// 65 bytes needs 2 lines.
	got := Sweep(m, 65, true, false)
	want := m.Read(true).Times(2)
	if got != want {
		t.Errorf("Sweep(65B seq read) = %v, want %v", got, want)
	}
	if got := Sweep(m, 0, true, false); got != (Cost{}) {
		t.Errorf("Sweep(0) = %v, want zero", got)
	}
	if got := Sweep(m, -5, true, false); got != (Cost{}) {
		t.Errorf("Sweep(-5) = %v, want zero", got)
	}
	// Write path.
	got = Sweep(m, 64, false, true)
	if got != m.Write(false) {
		t.Errorf("Sweep(64B rand write) = %v, want %v", got, m.Write(false))
	}
}

func TestLines(t *testing.T) {
	m := fakeMem{line: 8}
	cases := []struct {
		bytes int64
		want  int64
	}{{0, 0}, {-1, 0}, {1, 1}, {8, 1}, {9, 2}, {64, 8}}
	for _, c := range cases {
		if got := Lines(m, c.bytes); got != c.want {
			t.Errorf("Lines(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestCMOSPUPipelining(t *testing.T) {
	pu := NewCMOSPU()
	op := pu.Op()
	if op.Energy != pu.OpEnergy {
		t.Error("pipelining must not change per-op energy")
	}
	if op.Latency >= pu.OpLatency {
		t.Errorf("pipelined issue interval %v not below op latency %v", op.Latency, pu.OpLatency)
	}
	// Paper constants.
	if pu.OpLatency != units.Time(18.783*float64(units.Nanosecond)) {
		t.Errorf("op latency = %v, want 18.783ns", pu.OpLatency)
	}
	if pu.OpEnergy != units.Energy(3.7) {
		t.Errorf("op energy = %v, want 3.7pJ", pu.OpEnergy)
	}
	// Degenerate stage count falls back to unpipelined.
	pu.PipelineStages = 0
	if got := pu.Op(); got.Latency != pu.OpLatency {
		t.Errorf("stages=0 Op latency = %v, want %v", got.Latency, pu.OpLatency)
	}
}
