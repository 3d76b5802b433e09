package crossbar

import (
	"testing"

	"repro/internal/units"
)

func mustXbar(t *testing.T) *Crossbar {
	t.Helper()
	c, err := New(GraphRParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGraphRParams(t *testing.T) {
	p := GraphRParams()
	if p.Dim != 8 || p.CellBits != 4 || p.ValueBits != 16 {
		t.Errorf("GraphR geometry drifted: %+v", p)
	}
	if p.ReadCost.Latency != units.Time(29.31*1000) {
		t.Errorf("read latency = %v, want 29.31ns", p.ReadCost.Latency)
	}
	if p.WriteCost.Energy != units.Energy(3.91*1000) {
		t.Errorf("write energy = %v, want 3.91nJ", p.WriteCost.Energy)
	}
}

func TestValidation(t *testing.T) {
	p := GraphRParams()
	p.Dim = 0
	if _, err := New(p); err == nil {
		t.Error("zero dim accepted")
	}
	p = GraphRParams()
	p.ValueBits = 10 // not a multiple of 4
	if _, err := New(p); err == nil {
		t.Error("non-multiple value bits accepted")
	}
	p = GraphRParams()
	p.CellBits = 0
	if _, err := New(p); err == nil {
		t.Error("zero cell bits accepted")
	}
}

func TestGangCount(t *testing.T) {
	c := mustXbar(t)
	if c.Gangs() != 4 {
		t.Errorf("Gangs = %d, want 4 (16-bit ops over 4-bit cells)", c.Gangs())
	}
}

func TestProgramBlockScalesWithEdges(t *testing.T) {
	c := mustXbar(t)
	one := c.ProgramBlock(1)
	ten := c.ProgramBlock(10)
	if ten.Latency != one.Latency.Times(10) || ten.Energy != one.Energy.Times(10) {
		t.Errorf("ProgramBlock not linear: 1→%v, 10→%v", one, ten)
	}
	// Energy counts all four gangs per edge.
	if one.Energy != GraphRParams().WriteCost.Energy.Times(4) {
		t.Errorf("per-edge program energy = %v, want 4×3.91nJ", one.Energy)
	}
	if got := c.ProgramBlock(0); got != c.ProgramBlock(-1) || got.Energy != 0 {
		t.Error("empty block should cost nothing")
	}
}

func TestRowWiseCostsDimTimesMVM(t *testing.T) {
	c := mustXbar(t)
	mvm := c.MVM()
	rw := c.RowWiseOps()
	if rw.Latency != mvm.Latency.Times(8) || rw.Energy != mvm.Energy.Times(8) {
		t.Errorf("row-wise %v != 8× MVM %v", rw, mvm)
	}
}

// §6.4's headline: writing an edge into the crossbar costs far more than
// a CMOS op (3.91 nJ ≫ 3.7 pJ), hence E_cb_pu,mv > E_cmos_pu.
func TestCrossbarEdgeDominatesCMOS(t *testing.T) {
	c := mustXbar(t)
	const cmosOpPJ = 3.7
	perEdge := float64(c.ProgramBlock(1).Energy) // the per-edge cost GraphR charges
	if perEdge < 100*cmosOpPJ {
		t.Errorf("crossbar per-edge energy %v pJ should dwarf CMOS %v pJ", perEdge, cmosOpPJ)
	}
}
