package newton

import (
	"time"

	"newton/internal/host"
	"newton/internal/power"
)

// RunStats summarizes one run (a matrix-vector product or a batch).
type RunStats struct {
	// Cycles is the wall-clock duration in 1 GHz command-clock cycles,
	// i.e. nanoseconds.
	Cycles int64
	// Commands is the number of DRAM/AiM commands issued.
	Commands int64
	// Activations counts row activations (ganged activations count their
	// gang size).
	Activations int64
	// Refreshes counts all-bank refresh commands.
	Refreshes int64
	// ExternalBytesRead/Written crossed the DRAM PHY (results, inputs,
	// or - for the non-PIM baseline - the entire matrix).
	ExternalBytesRead    int64
	ExternalBytesWritten int64
	// InternalBytesRead is bank-internal column data consumed by compute
	// commands: the bandwidth PIM exposes without touching the PHY.
	InternalBytesRead int64

	result *host.Result
}

// Duration converts cycles to time at the 1 GHz command clock.
func (s RunStats) Duration() time.Duration {
	return time.Duration(s.Cycles) * time.Nanosecond
}

// add merges batch-item stats.
func (s RunStats) add(o RunStats) RunStats {
	s.Cycles += o.Cycles
	s.Commands += o.Commands
	s.Activations += o.Activations
	s.Refreshes += o.Refreshes
	s.ExternalBytesRead += o.ExternalBytesRead
	s.ExternalBytesWritten += o.ExternalBytesWritten
	s.InternalBytesRead += o.InternalBytesRead
	if s.result == nil {
		s.result = o.result
	}
	return s
}

// PowerReport is the relative power/energy summary of a run, in units
// where conventional DRAM streaming at peak bandwidth draws power 1.0
// (the paper's Fig. 13 normalization).
type PowerReport struct {
	// AvgPower is the run's average power relative to conventional DRAM
	// at peak read bandwidth.
	AvgPower float64
	// Energy is AvgPower integrated over the run (power-cycles).
	Energy float64
	// ComputeFraction is the share of time the in-DRAM datapath is
	// actively multiplying.
	ComputeFraction float64
}

// PowerOf evaluates the power model for a run on this system.
func (s *System) PowerOf(st RunStats) PowerReport {
	if st.result == nil {
		return PowerReport{}
	}
	r := power.Newton(power.Default(), s.dcfg, st.result)
	return PowerReport{AvgPower: r.AvgPower, Energy: r.Energy, ComputeFraction: r.ComputeFraction}
}

// PowerOf evaluates the conventional-DRAM power model for a baseline
// run: the denominator of the paper's Fig. 13.
func (b *IdealBaseline) PowerOf(st RunStats) PowerReport {
	if st.result == nil {
		return PowerReport{}
	}
	r := power.ConventionalDRAM(power.Default(), b.dcfg, st.result)
	return PowerReport{AvgPower: r.AvgPower, Energy: r.Energy}
}
