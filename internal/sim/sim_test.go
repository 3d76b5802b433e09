package sim

import (
	"testing"

	"repro/internal/units"
)

func TestResourceFIFO(t *testing.T) {
	var r Resource
	s1, e1 := r.AcquireAt(0, 10*units.Nanosecond)
	s2, e2 := r.AcquireAt(0, 5*units.Nanosecond)
	if s1 != 0 || e1 != 10*units.Nanosecond {
		t.Errorf("first acquire (%v,%v)", s1, e1)
	}
	if s2 != 10*units.Nanosecond || e2 != 15*units.Nanosecond {
		t.Errorf("second acquire queued wrong: (%v,%v)", s2, e2)
	}
	if r.BusyTime != 15*units.Nanosecond || r.Served != 2 {
		t.Errorf("stats: busy=%v served=%d", r.BusyTime, r.Served)
	}
}

func TestResourceAcquireAt(t *testing.T) {
	var r Resource
	// Earliest in the future delays the start.
	s, end := r.AcquireAt(7*units.Nanosecond, 2*units.Nanosecond)
	if s != 7*units.Nanosecond || end != 9*units.Nanosecond {
		t.Errorf("AcquireAt = (%v,%v)", s, end)
	}
	// But the resource's own availability still dominates.
	s2, end2 := r.AcquireAt(0, 1*units.Nanosecond)
	if s2 != 9*units.Nanosecond || end2 != 10*units.Nanosecond {
		t.Errorf("second AcquireAt = (%v,%v), want (9ns,10ns)", s2, end2)
	}
}

// A request that may start before time zero still starts at zero.
func TestResourceZeroFloor(t *testing.T) {
	var r Resource
	if s, end := r.AcquireAt(-5*units.Nanosecond, 2*units.Nanosecond); s != 0 || end != 2*units.Nanosecond {
		t.Errorf("AcquireAt(-5ns) = (%v,%v), want (0,2ns)", s, end)
	}
}

func TestNegativeServicePanics(t *testing.T) {
	var r Resource
	defer func() {
		if recover() == nil {
			t.Error("negative service did not panic")
		}
	}()
	r.AcquireAt(0, -units.Nanosecond)
}
