// Package sim holds the FIFO-reservation resource the request-level
// models are built from: a single server that requests reserve in
// issue order, each learning when its service starts and ends. The
// memory-channel stream model (internal/mem) and the super-block
// request-level check (internal/core) chain such resources to price
// contention at request granularity — the paper's "custom
// cycle-accurate simulator" fidelity for the questions that need it
// (interleaving policies, §3.1). Time starts at zero.
package sim

import "repro/internal/units"

// Resource is a single-server FIFO resource: requests acquire it for a
// service duration and callers learn their completion time. It is the
// building block for banks, subbanks, and channel ports. The zero value
// is an idle resource at time zero, ready to use.
type Resource struct {
	freeAt   units.Time // never below zero: the floor of every start
	BusyTime units.Time
	Served   int64
}

// AcquireAt reserves the resource for service starting no earlier than
// both `earliest` and the resource's own availability (and never before
// time zero) — the FIFO queueing primitive for chained resources
// (array → port).
func (r *Resource) AcquireAt(earliest, service units.Time) (start, end units.Time) {
	if service < 0 {
		panic("sim: negative service time")
	}
	start = r.freeAt
	if earliest > start {
		start = earliest
	}
	end = start + service
	r.freeAt = end
	r.BusyTime += service
	r.Served++
	return start, end
}
