package mem

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// This file simulates the edge-memory channel at request level to settle
// the paper's §3.1 interleaving argument with a request-level FIFO model:
//
//	"Similar to bank interleaving, subbank-level interleaving utilizes
//	 independent mats to improve sequential bandwidth … for the edge
//	 memory, we adopt subbank interleaving and avoid bank interleaving,
//	 which allows more banks to be put into power-saving states. To
//	 maintain the memory bandwidth, the width of the output port for
//	 each bank increases by N times."
//
// The simulation shows the exact trade: both policies reach the same
// streaming bandwidth (given the widened port), but bank interleaving
// keeps every bank busy — and therefore awake — while subbank
// interleaving concentrates activity in one bank at a time.

// InterleavePolicy selects how consecutive lines map onto banks.
type InterleavePolicy int

// Interleaving policies.
const (
	// BankInterleave rotates consecutive lines across banks (commodity
	// DRAM controller behaviour).
	BankInterleave InterleavePolicy = iota
	// SubbankInterleave fills one bank before moving to the next,
	// rotating only across the subbanks inside it (HyVE's edge memory).
	SubbankInterleave
)

func (p InterleavePolicy) String() string {
	switch p {
	case BankInterleave:
		return "bank-interleave"
	case SubbankInterleave:
		return "subbank-interleave"
	default:
		return fmt.Sprintf("InterleavePolicy(%d)", int(p))
	}
}

// ChannelConfig describes the banked memory behind one channel.
type ChannelConfig struct {
	// Banks across the region (all chips).
	Banks int
	// Subbanks (independently accessible mat groups) per bank.
	Subbanks int
	// ArrayTime is one subbank's array access time for a line.
	ArrayTime units.Time
	// PortTime is the time to move one line through the bank's output
	// port. HyVE widens the port so PortTime ≤ ArrayTime/Subbanks.
	PortTime units.Time
	// ChannelTime is the time one line occupies the shared chip/channel
	// bus that every bank's port feeds (the I/O gating + DQ of Fig. 3).
	ChannelTime units.Time
	// LinesPerBank is the capacity used for sequential bank filling.
	LinesPerBank int64
}

// Validate checks the configuration.
func (c ChannelConfig) Validate() error {
	if c.Banks <= 0 || c.Subbanks <= 0 {
		return fmt.Errorf("mem: non-positive bank/subbank count (%d/%d)", c.Banks, c.Subbanks)
	}
	if c.ArrayTime <= 0 || c.PortTime <= 0 || c.ChannelTime <= 0 {
		return fmt.Errorf("mem: non-positive timing (%v/%v/%v)", c.ArrayTime, c.PortTime, c.ChannelTime)
	}
	if c.LinesPerBank <= 0 {
		return fmt.Errorf("mem: non-positive bank capacity %d lines", c.LinesPerBank)
	}
	return nil
}

// StreamResult summarizes a simulated sequential sweep.
type StreamResult struct {
	Policy   InterleavePolicy
	Lines    int64
	Duration units.Time
	// BankBusy is each bank's total array busy time; a bank with zero
	// busy time was never woken.
	BankBusy []units.Time
	// BankWindow is each bank's awake window: from its first access to
	// its last (a gated bank cannot sleep mid-window without paying a
	// wake on the next access).
	BankWindow []units.Time
	// BanksTouched counts banks with any activity.
	BanksTouched int
}

// Bandwidth returns lines per nanosecond.
func (r StreamResult) Bandwidth() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Lines) / r.Duration.Nanoseconds()
}

// AwakeBankTime integrates bank-awake time: each touched bank stays
// awake from its first to its last access (no mid-window gating). Under
// bank interleaving every bank's window spans the whole stream; under
// subbank interleaving the windows tile it — the quantity behind §3.1's
// "allows more banks to be put into power-saving states".
func (r StreamResult) AwakeBankTime() units.Time {
	var total units.Time
	for _, w := range r.BankWindow {
		total += w
	}
	return total
}

// SimulateStream runs `lines` sequential line reads through the channel
// under the policy, request by request.
func SimulateStream(cfg ChannelConfig, policy InterleavePolicy, lines int64) (StreamResult, error) {
	if err := cfg.Validate(); err != nil {
		return StreamResult{}, err
	}
	if lines <= 0 {
		return StreamResult{}, fmt.Errorf("mem: non-positive line count %d", lines)
	}
	// One resource per subbank (array), one port per bank, one shared
	// channel bus.
	arrays := make([][]sim.Resource, cfg.Banks)
	ports := make([]sim.Resource, cfg.Banks)
	var channel sim.Resource
	for b := range arrays {
		arrays[b] = make([]sim.Resource, cfg.Subbanks)
	}

	mapLine := func(i int64) (bank, subbank int) {
		switch policy {
		case BankInterleave:
			return int(i % int64(cfg.Banks)), int(i / int64(cfg.Banks) % int64(cfg.Subbanks))
		default:
			return int(i / cfg.LinesPerBank % int64(cfg.Banks)), int(i % int64(cfg.Subbanks))
		}
	}

	var finish units.Time
	first := make([]units.Time, cfg.Banks)
	last := make([]units.Time, cfg.Banks)
	touched := make([]bool, cfg.Banks)
	// The controller issues requests in order; each request serializes
	// through its subbank array and then its bank port. The FIFO
	// resources enforce ordering and back-pressure.
	for i := int64(0); i < lines; i++ {
		bank, subbank := mapLine(i)
		// The controller issues one request per channel slot (it cannot
		// run ahead of what the bus can drain), so request i arrives at
		// i × ChannelTime; the subbank array serves it FIFO after that.
		arrival := units.Time(float64(i) * float64(cfg.ChannelTime))
		start, arrayEnd := arrays[bank][subbank].AcquireAt(arrival, cfg.ArrayTime)
		// The port transfer starts when the array delivers; the shared
		// channel serializes everything the ports produce.
		_, portEnd := ports[bank].AcquireAt(arrayEnd, cfg.PortTime)
		_, busEnd := channel.AcquireAt(portEnd, cfg.ChannelTime)
		if busEnd > finish {
			finish = busEnd
		}
		if !touched[bank] || start < first[bank] {
			first[bank] = start
		}
		if portEnd > last[bank] {
			last[bank] = portEnd
		}
		touched[bank] = true
	}

	res := StreamResult{Policy: policy, Lines: lines, Duration: finish}
	res.BankBusy = make([]units.Time, cfg.Banks)
	res.BankWindow = make([]units.Time, cfg.Banks)
	for b := range arrays {
		for _, a := range arrays[b] {
			res.BankBusy[b] += a.BusyTime
		}
		if touched[b] {
			res.BanksTouched++
			res.BankWindow[b] = last[b] - first[b]
		}
	}
	rec := obs.Default()
	rec.Count("mem.channel.streams", 1)
	rec.Count("mem.channel.lines", lines)
	rec.Count("mem.channel.banks-touched", int64(res.BanksTouched))
	rec.PhaseTime("mem.channel."+policy.String(), finish)
	rec.PhaseTime("mem.channel.awake-bank", res.AwakeBankTime())
	return res, nil
}

// HyVEEdgeChannel returns the edge-memory channel configuration for a
// region built from chips with the given per-bank period and subbank
// count, with the §3.1 widened port (one line per array interval).
func HyVEEdgeChannel(banks, subbanks int, arrayTime units.Time, linesPerBank int64) ChannelConfig {
	perLine := units.Time(float64(arrayTime) / float64(subbanks))
	return ChannelConfig{
		Banks:        banks,
		Subbanks:     subbanks,
		ArrayTime:    arrayTime,
		PortTime:     perLine,
		ChannelTime:  perLine,
		LinesPerBank: linesPerBank,
	}
}
