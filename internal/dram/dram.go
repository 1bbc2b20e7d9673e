// Package dram implements a cycle-level DRAM timing and functional
// simulator in the spirit of DRAMsim2, which the Newton paper builds on.
//
// The simulator models a single-rank, multi-bank DRAM channel: banks with
// row buffers and explicit state machines, a command bus that admits one
// command per fixed slot, a timing checker that enforces the JEDEC-style
// constraints that drive all of Newton's results (tRCD, tRP, tRAS, tRRD,
// the four-activation window tFAW, tCCD, tREFI/tRFC), and functional row
// storage so data read back is the data written.
//
// The package is event-driven rather than ticked: callers ask a Channel
// for the earliest legal issue cycle of a command and then issue it at a
// chosen cycle. Issuing at an illegal cycle is an error, so schedulers are
// checked rather than trusted. This keeps multi-million-cycle simulations
// cheap on one core while remaining cycle-accurate at command granularity.
//
// Newton's AiM command set (Table I of the paper: GWRITE, G_ACT, COMP,
// READRES) is declared here so the timing checker can reason about it, but
// its datapath semantics (global buffer, MAC units) live in package aim.
package dram

import "fmt"

// Geometry describes the channel organization of the device.
//
// The paper's HBM2E-like configuration (Table III) has 16 banks per
// (pseudo) channel, 32768 rows per bank, 32 column I/Os per row, and
// 256-bit column I/Os, giving 1 KB rows.
type Geometry struct {
	// Channels is the number of independent (pseudo) channels. Newton's
	// per-channel operation and timing repeat in parallel across channels
	// (paper §III-D), so per-channel simulations are composed by sharding.
	Channels int
	// Banks is the number of banks per channel.
	Banks int
	// BanksPerCluster is the gang size of a G_ACT command (paper: 4).
	BanksPerCluster int
	// Rows is the number of DRAM rows per bank.
	Rows int
	// Cols is the number of column I/Os per row.
	Cols int
	// ColBits is the width of one column I/O in bits.
	ColBits int
}

// ColBytes returns the size of one column I/O in bytes.
func (g Geometry) ColBytes() int { return g.ColBits / 8 }

// RowBytes returns the size of one DRAM row in bytes.
func (g Geometry) RowBytes() int { return g.Cols * g.ColBytes() }

// Clusters returns the number of G_ACT bank clusters per channel.
func (g Geometry) Clusters() int { return g.Banks / g.BanksPerCluster }

// Validate checks that the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Channels < 1:
		return fmt.Errorf("dram: Channels must be >= 1, got %d", g.Channels)
	case g.Banks < 1:
		return fmt.Errorf("dram: Banks must be >= 1, got %d", g.Banks)
	case g.BanksPerCluster < 1:
		return fmt.Errorf("dram: BanksPerCluster must be >= 1, got %d", g.BanksPerCluster)
	case g.Banks%g.BanksPerCluster != 0:
		return fmt.Errorf("dram: Banks (%d) must be a multiple of BanksPerCluster (%d)", g.Banks, g.BanksPerCluster)
	case g.Rows < 1:
		return fmt.Errorf("dram: Rows must be >= 1, got %d", g.Rows)
	case g.Cols < 1:
		return fmt.Errorf("dram: Cols must be >= 1, got %d", g.Cols)
	case g.ColBits < 8 || g.ColBits%8 != 0:
		return fmt.Errorf("dram: ColBits must be a positive multiple of 8, got %d", g.ColBits)
	}
	return nil
}

// Timing holds the timing parameters in cycles of the command clock.
// The presets use a 1 GHz command clock, so cycles equal nanoseconds.
type Timing struct {
	// CmdSlot is the minimum spacing between two commands on the same
	// command bus of a channel (paper §III-D: "DRAM commands must be
	// separated by a specified delay (e.g., 4 cycles)"). HBM-class parts
	// have separate row and column command buses; the column bus carries
	// all compute commands and is the command-bandwidth constraint that
	// Newton's ganged and complex commands exist to relieve.
	CmdSlot int64

	TRCD int64 // ACT to column command, same bank
	TRP  int64 // PRE to ACT, same bank
	TRAS int64 // ACT to PRE, same bank
	TCCD int64 // column command to column command, same channel
	TAA  int64 // column command to data on the bus (read latency)
	TWR  int64 // end of write to PRE, same bank
	TRRD int64 // ACT to ACT, different banks
	TFAW int64 // window in which at most four ACTs may issue

	TREFI int64 // average refresh interval
	TRFC  int64 // refresh cycle time (all banks busy)

	// TMAC is the completion latency of the AiM adder-tree pipeline after
	// a COMP's column access: the delay the host must insert before
	// READRES (paper §III-D item 2: "the adder tree takes more than 4
	// cycles to complete though there is pipelining").
	TMAC int64
}

// TRC returns the row cycle time (ACT to ACT, same bank).
func (t *Timing) TRC() int64 { return t.TRAS + t.TRP }

// Validate checks that the timing parameters are physically plausible.
func (t Timing) Validate() error {
	type check struct {
		name string
		v    int64
	}
	for _, c := range []check{
		{"CmdSlot", t.CmdSlot}, {"TRCD", t.TRCD}, {"TRP", t.TRP},
		{"TRAS", t.TRAS}, {"TCCD", t.TCCD}, {"TAA", t.TAA}, {"TWR", t.TWR},
		{"TRRD", t.TRRD}, {"TFAW", t.TFAW}, {"TREFI", t.TREFI},
		{"TRFC", t.TRFC}, {"TMAC", t.TMAC},
	} {
		if c.v < 1 {
			return fmt.Errorf("dram: timing parameter %s must be >= 1, got %d", c.name, c.v)
		}
	}
	if t.TFAW < t.TRRD {
		return fmt.Errorf("dram: TFAW (%d) must be >= TRRD (%d)", t.TFAW, t.TRRD)
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("dram: TRAS (%d) must be >= TRCD (%d)", t.TRAS, t.TRCD)
	}
	if t.TREFI <= t.TRFC {
		return fmt.Errorf("dram: TREFI (%d) must exceed TRFC (%d)", t.TREFI, t.TRFC)
	}
	// Each catch-up REF takes a row-bus slot, so a refresh interval no
	// longer than one would leave the controller forever behind.
	if t.TREFI <= t.CmdSlot {
		return fmt.Errorf("dram: TREFI (%d) must exceed CmdSlot (%d)", t.TREFI, t.CmdSlot)
	}
	return nil
}

// Config bundles geometry and timing.
type Config struct {
	Geometry Geometry
	Timing   Timing
}

// Validate checks both halves of the configuration.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	return c.Timing.Validate()
}

// HBM2EGeometry returns the paper's Table III channel organization with
// the given number of channels.
func HBM2EGeometry(channels int) Geometry {
	return Geometry{
		Channels:        channels,
		Banks:           16,
		BanksPerCluster: 4,
		Rows:            32768,
		Cols:            32,
		ColBits:         256,
	}
}

// ConventionalTiming returns HBM2E-like timing with the conventional
// (non-AiM-optimized) four-activation window. Published Table III values
// are used directly (tRCD = 14 ns, tRP = 14 ns, tRAS = 33 ns, tAA mid-
// range 25 ns); the rest are chosen inside standard HBM2E ranges. The
// command clock is 1 GHz, so cycles are nanoseconds.
func ConventionalTiming() Timing {
	return Timing{
		CmdSlot: 4,
		TRCD:    14,
		TRP:     14,
		TRAS:    33,
		TCCD:    4,
		TAA:     25,
		TWR:     8,
		TRRD:    6,
		TFAW:    32,
		TREFI:   3900,
		TRFC:    350,
		TMAC:    12,
	}
}

// AiMTiming returns ConventionalTiming with the aggressive tFAW that
// Newton's strengthened internal voltage regulators buy (paper §III-D).
// With 16 banks the paper's §III-F model (with activation overhead
// tRCD+tRP) then predicts a 9.76x speedup over Ideal Non-PIM, matching
// the paper's reported 9.8x prediction.
func AiMTiming() Timing {
	t := ConventionalTiming()
	t.TFAW = 18
	return t
}

// HBM2EConfig returns the full evaluation configuration of the paper:
// 24 channels x 16 banks with AiM-optimized timing.
func HBM2EConfig() Config {
	return Config{Geometry: HBM2EGeometry(24), Timing: AiMTiming()}
}
