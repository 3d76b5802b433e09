package energy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestBreakdownAccumulates(t *testing.T) {
	var b Breakdown
	b.Add(EdgeMemory, 10)
	b.Add(EdgeMemory, 5)
	b.Add(Logic, 20)
	if got := b.Get(EdgeMemory); got != 15 {
		t.Errorf("EdgeMemory = %v, want 15", got)
	}
	if got := b.Total(); got != 35 {
		t.Errorf("Total = %v, want 35", got)
	}
}

// Components must sum to the total — the Fig. 17 stacked-bar invariant.
func TestComponentsSumToTotal(t *testing.T) {
	f := func(raw [5]uint32) bool {
		var b Breakdown
		for i, v := range raw {
			b.Add(Component(i), units.Energy(v))
		}
		var sum units.Energy
		for _, c := range Components() {
			sum += b.Get(c)
		}
		return sum == b.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVertexAndMemoryGroups(t *testing.T) {
	var b Breakdown
	b.Add(EdgeMemory, 100)
	b.Add(VertexMemoryOffChip, 30)
	b.Add(VertexMemoryOnChip, 20)
	b.Add(Logic, 50)
	if got := b.VertexMemory(); got != 50 {
		t.Errorf("VertexMemory = %v, want 50", got)
	}
	if got := b.MemoryTotal(); got != 150 {
		t.Errorf("MemoryTotal = %v, want 150", got)
	}
}

func TestFractions(t *testing.T) {
	var b Breakdown
	if b.Fraction(Logic) != 0 {
		t.Error("empty breakdown fraction should be 0")
	}
	b.Add(Logic, 25)
	b.Add(EdgeMemory, 75)
	if got := b.Fraction(EdgeMemory); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Fraction = %v, want 0.75", got)
	}
}

func TestAddPanicsOnBadInput(t *testing.T) {
	var b Breakdown
	for _, fn := range []func(){
		func() { b.Add(Component(99), 1) },
		func() { b.Add(Logic, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGetOutOfRange(t *testing.T) {
	var b Breakdown
	if b.Get(Component(99)) != 0 || b.Get(Component(-1)) != 0 {
		t.Error("out-of-range Get should be 0")
	}
}

func TestAddAll(t *testing.T) {
	var a, b Breakdown
	a.Add(Logic, 10)
	b.Add(Logic, 5)
	b.Add(Router, 7)
	a.AddAll(&b)
	if a.Get(Logic) != 15 || a.Get(Router) != 7 {
		t.Errorf("AddAll wrong: %v", &a)
	}
}

func TestComponentStrings(t *testing.T) {
	for _, c := range Components() {
		if strings.HasPrefix(c.String(), "Component(") {
			t.Errorf("component %d lacks a name", int(c))
		}
	}
	if !strings.HasPrefix(Component(42).String(), "Component(") {
		t.Error("unknown component should fall back to numeric form")
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.Add(EdgeMemory, 100)
	b.Add(Logic, 50)
	s := b.String()
	if !strings.Contains(s, "edge-memory") || !strings.Contains(s, "logic") {
		t.Errorf("String() = %q", s)
	}
	// Largest first.
	if strings.Index(s, "edge-memory") > strings.Index(s, "logic") {
		t.Errorf("not sorted by magnitude: %q", s)
	}
}

func TestReportMetrics(t *testing.T) {
	r := Report{
		Config: "acc+HyVE", Algorithm: "PR", Dataset: "YT",
		Time:           units.Second,
		EdgesProcessed: 2_000_000,
		Iterations:     10,
	}
	r.Energy.Add(EdgeMemory, units.Joule)
	// 2e6 edges / 1 J = 2 MTEPS/W; 2e6 edges / 1 s = 2 MTEPS.
	if got := r.MTEPSPerWatt(); math.Abs(got-2) > 1e-9 {
		t.Errorf("MTEPS/W = %v, want 2", got)
	}
	if got := r.MTEPS(); math.Abs(got-2) > 1e-9 {
		t.Errorf("MTEPS = %v, want 2", got)
	}
	if got := r.EDP(); got != units.EDPOf(units.Joule, units.Second) {
		t.Errorf("EDP = %v", got)
	}
	if got := r.AvgPower(); math.Abs(got.Watts()-1) > 1e-9 {
		t.Errorf("AvgPower = %v, want 1W", got)
	}
	if s := r.String(); !strings.Contains(s, "acc+HyVE") || !strings.Contains(s, "PR") {
		t.Errorf("Report.String() = %q", s)
	}
}
