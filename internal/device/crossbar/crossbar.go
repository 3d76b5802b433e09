// Package crossbar models the ReRAM crossbar used *as a compute unit* by
// GraphR (HPCA'18), the prior ReRAM graph accelerator the paper compares
// against in §6.4 and §7.4. An 8×8 crossbar holds one graph block as an
// adjacency sub-matrix; processing a block means programming (writing)
// its edges into the cells, then performing analog matrix-vector reads.
//
// Operating points are the ones the paper takes from GraphR:
// read 29.31 ns / 1.08 pJ, write 50.88 ns / 3.91 nJ per operation; 4-bit
// cells, so a 16-bit operation uses 4 crossbars ganged together (Eq. 11),
// and non-MVM algorithms drive rows one at a time, turning one logical
// MVM into 8 sequential row operations plus a CMOS op at each output
// port (Eq. 12).
package crossbar

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/units"
)

// Params describes a GraphR-style compute crossbar array.
type Params struct {
	// Dim is the crossbar dimension (GraphR: 8).
	Dim int
	// CellBits is the precision of one cell (GraphR: 4).
	CellBits int
	// ValueBits is the operand precision (GraphR: 16), so
	// ValueBits/CellBits crossbars gang together per operation.
	ValueBits int
	// ReadCost is one analog MVM read of the whole crossbar.
	ReadCost device.Cost
	// WriteCost is programming one cell (one edge).
	WriteCost device.Cost
}

// GraphRParams returns the published GraphR operating point.
func GraphRParams() Params {
	return Params{
		Dim:       8,
		CellBits:  4,
		ValueBits: 16,
		ReadCost: device.Cost{
			Latency: units.Time(29.31 * float64(units.Nanosecond)),
			Energy:  units.Energy(1.08 * float64(units.Picojoule)),
		},
		WriteCost: device.Cost{
			Latency: units.Time(50.88 * float64(units.Nanosecond)),
			Energy:  units.Energy(3.91 * float64(units.Nanojoule)),
		},
	}
}

// Crossbar is a configured compute crossbar.
type Crossbar struct {
	p     Params
	gangs int
}

// New validates p.
func New(p Params) (*Crossbar, error) {
	if p.Dim <= 0 {
		return nil, fmt.Errorf("crossbar: non-positive dimension %d", p.Dim)
	}
	if p.CellBits <= 0 || p.ValueBits <= 0 || p.ValueBits%p.CellBits != 0 {
		return nil, fmt.Errorf("crossbar: value bits %d not a multiple of cell bits %d", p.ValueBits, p.CellBits)
	}
	return &Crossbar{p: p, gangs: p.ValueBits / p.CellBits}, nil
}

// Gangs returns how many physical crossbars implement one full-precision
// operation (GraphR: 4).
func (c *Crossbar) Gangs() int { return c.gangs }

// ProgramBlock returns the cost of writing nEdges edges of a block into
// the ganged crossbars. Every edge is programmed in each of the gangs
// (its value is bit-sliced), but the programming pulses of one edge's
// slices overlap across gangs, so latency counts once per edge.
func (c *Crossbar) ProgramBlock(nEdges int) device.Cost {
	if nEdges <= 0 {
		return device.Cost{}
	}
	return device.Cost{
		Latency: c.p.WriteCost.Latency.Times(float64(nEdges)),
		Energy:  c.p.WriteCost.Energy.Times(float64(nEdges) * float64(c.gangs)),
	}
}

// MVM returns the cost of one full-precision matrix-vector operation over
// the programmed block (Eq. 11's read part): the gangs fire in parallel
// (latency once) but each consumes read energy.
func (c *Crossbar) MVM() device.Cost {
	return device.Cost{
		Latency: c.p.ReadCost.Latency,
		Energy:  c.p.ReadCost.Energy.Times(float64(c.gangs)),
	}
}

// RowWiseOps returns the cost of a non-MVM traversal of the block
// (Eq. 12): rows are selected in turn, so the crossbar read repeats Dim
// times; the per-destination CMOS operation at the output ports is the
// caller's to add.
func (c *Crossbar) RowWiseOps() device.Cost {
	return device.Cost{
		Latency: c.p.ReadCost.Latency.Times(float64(c.p.Dim)),
		Energy:  c.p.ReadCost.Energy.Times(float64(c.gangs) * float64(c.p.Dim)),
	}
}
