package conformance

import (
	"fmt"

	"newton/internal/dram"
)

// Suite is a set of checkers, one per channel of a configuration, for
// callers (the host controller) that verify a whole device at once.
type Suite struct {
	checkers []*Checker
}

// NewSuite returns one checker per channel of cfg.
func NewSuite(cfg dram.Config, opt Options) (*Suite, error) {
	if cfg.Geometry.Channels < 1 {
		return nil, fmt.Errorf("conformance: config has %d channels", cfg.Geometry.Channels)
	}
	s := &Suite{checkers: make([]*Checker, cfg.Geometry.Channels)}
	for i := range s.checkers {
		c, err := New(cfg, opt)
		if err != nil {
			return nil, err
		}
		s.checkers[i] = c
	}
	return s, nil
}

// Channel returns channel ch's checker (to install as its observer).
func (s *Suite) Channel(ch int) *Checker { return s.checkers[ch] }

// EnableCoexist turns on the mixed-traffic rules on every channel's
// checker (see Checker.EnableCoexist).
func (s *Suite) EnableCoexist() {
	for _, c := range s.checkers {
		c.EnableCoexist()
	}
}

// Channels returns the number of per-channel checkers.
func (s *Suite) Channels() int { return len(s.checkers) }

// Commands returns the total commands observed across all channels.
func (s *Suite) Commands() int64 {
	var n int64
	for _, c := range s.checkers {
		n += c.Commands()
	}
	return n
}

// Violations returns all recorded violations, channel by channel.
func (s *Suite) Violations() []Violation {
	var vs []Violation
	for _, c := range s.checkers {
		vs = append(vs, c.Violations()...)
	}
	return vs
}

// Err returns the first violation recorded on any channel as an error
// (annotated with its channel), or nil if the run was clean.
func (s *Suite) Err() error {
	for i, c := range s.checkers {
		if err := c.Err(); err != nil {
			return fmt.Errorf("channel %d: %w", i, err)
		}
	}
	return nil
}

// TimedCommand pairs a command with its issue cycle: one entry of a
// recorded command trace. internal/traceio parses and writes traces of
// this type under an alias, so traceio imports this package, and this
// package imports only aim and dram.
type TimedCommand struct {
	Cycle int64
	Cmd   dram.Command
}

// CheckTrace runs a single-channel command trace (as recorded or parsed
// by internal/traceio) through a fresh checker and returns the
// violations in trace order. It is the trace-level entry point of the
// one independent timing referee. The trace must be in issue order.
func CheckTrace(cfg dram.Config, opt Options, trace []TimedCommand) ([]Violation, error) {
	c, err := New(cfg, opt)
	if err != nil {
		return nil, err
	}
	for _, tc := range trace {
		c.Observe(tc.Cmd, tc.Cycle)
	}
	return c.Violations(), nil
}
