// Package energy provides the accounting layer every simulator reports
// through: per-component energy breakdowns (the paper's Fig. 17 buckets),
// execution summaries, and the derived figures of merit (MTEPS/W, EDP).
package energy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// Component identifies an energy sink in the architecture.
type Component int

// Components, in report order.
const (
	EdgeMemory Component = iota
	VertexMemoryOffChip
	VertexMemoryOnChip
	Router
	Logic
	numComponents
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case EdgeMemory:
		return "edge-memory"
	case VertexMemoryOffChip:
		return "vertex-memory-offchip"
	case VertexMemoryOnChip:
		return "vertex-memory-onchip"
	case Router:
		return "router"
	case Logic:
		return "logic"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Components lists every component in report order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown accumulates energy per component. The zero value is ready to
// use.
type Breakdown struct {
	by [numComponents]units.Energy
}

// Add charges e to component c. Negative charges are rejected by panic:
// they always indicate an accounting bug, never a recoverable condition.
func (b *Breakdown) Add(c Component, e units.Energy) {
	if c < 0 || c >= numComponents {
		panic(fmt.Sprintf("energy: unknown component %d", int(c)))
	}
	if e < 0 {
		panic(fmt.Sprintf("energy: negative charge %v to %v", e, c))
	}
	b.by[c] += e
}

// Get returns the energy charged to c so far.
func (b *Breakdown) Get(c Component) units.Energy {
	if c < 0 || c >= numComponents {
		return 0
	}
	return b.by[c]
}

// Total returns the sum over all components.
func (b *Breakdown) Total() units.Energy {
	var t units.Energy
	for _, e := range b.by {
		t += e
	}
	return t
}

// VertexMemory returns the combined on-chip + off-chip vertex memory
// energy — the paper's Fig. 17 groups them as one bar segment.
func (b *Breakdown) VertexMemory() units.Energy {
	return b.by[VertexMemoryOffChip] + b.by[VertexMemoryOnChip]
}

// MemoryTotal returns all memory energy (edge + vertex), the quantity
// behind the "memory energy consumption reduced by 86.17%" claim.
func (b *Breakdown) MemoryTotal() units.Energy {
	return b.by[EdgeMemory] + b.VertexMemory()
}

// Fraction returns component c's share of the total, or 0 for an empty
// breakdown.
func (b *Breakdown) Fraction(c Component) float64 {
	t := b.Total()
	if t <= 0 {
		return 0
	}
	return float64(b.Get(c)) / float64(t)
}

// AddAll merges another breakdown into b.
func (b *Breakdown) AddAll(o *Breakdown) {
	for i := range b.by {
		b.by[i] += o.by[i]
	}
}

// String renders the breakdown largest-first.
func (b *Breakdown) String() string {
	type row struct {
		c Component
		e units.Energy
	}
	rows := make([]row, 0, numComponents)
	for i := Component(0); i < numComponents; i++ {
		if b.by[i] > 0 {
			rows = append(rows, row{i, b.by[i]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].e > rows[j].e })
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%v=%v (%.1f%%)", r.c, r.e, 100*b.Fraction(r.c))
	}
	return strings.Join(parts, ", ")
}

// Report is the outcome of one simulated execution.
type Report struct {
	// Config names the simulated configuration (acc+HyVE, acc+DRAM, …).
	Config string
	// Algorithm and Dataset identify the workload.
	Algorithm string
	Dataset   string
	// Time is the simulated execution time.
	Time units.Time
	// Energy is the per-component energy.
	Energy Breakdown
	// EdgesProcessed counts edge traversals across all iterations
	// (the "TEPS" numerator).
	EdgesProcessed int64
	// Iterations the algorithm ran until convergence / fixed count.
	Iterations int
}

// MTEPSPerWatt returns the paper's figure of merit for this run.
func (r *Report) MTEPSPerWatt() float64 {
	return units.MTEPSPerWatt(float64(r.EdgesProcessed), r.Energy.Total())
}

// MTEPS returns the throughput in millions of traversed edges per second.
func (r *Report) MTEPS() float64 {
	return units.MTEPS(float64(r.EdgesProcessed), r.Time)
}

// EDP returns the run's energy-delay product.
func (r *Report) EDP() units.EDP {
	return units.EDPOf(r.Energy.Total(), r.Time)
}

// AvgPower returns the mean power over the run.
func (r *Report) AvgPower() units.Power {
	return units.PowerOver(r.Energy.Total(), r.Time)
}

func (r *Report) String() string {
	return fmt.Sprintf("%s/%s/%s: t=%v E=%v %.1f MTEPS %.1f MTEPS/W [%v]",
		r.Config, r.Algorithm, r.Dataset, r.Time, r.Energy.Total(), r.MTEPS(), r.MTEPSPerWatt(), &r.Energy)
}
