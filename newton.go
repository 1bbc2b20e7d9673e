// Package newton is a simulator and library reproduction of "Newton: A
// DRAM-maker's Accelerator-in-Memory (AiM) Architecture for Machine
// Learning" (MICRO 2020): SK hynix's digital processing-in-memory design
// that places minimal multiply-accumulate hardware behind every DRAM
// bank's sense amplifiers and drives it through a DRAM-command-like
// interface.
//
// The package exposes:
//
//   - System: a Newton memory system (cycle-level DRAM simulation with
//     AiM compute) that loads weight matrices and executes matrix-vector
//     products and whole multi-layer model inferences,
//   - IdealBaseline: the paper's upper bound on any non-PIM design -
//     infinite compute behind a perfectly-utilized external DRAM
//     interface - running through the same simulator,
//   - GPUModel: the calibrated Titan V-class analytic baseline,
//   - Predict: the paper's §III-F closed-form performance model,
//   - PowerReport: the relative power/energy model behind Fig. 13.
//
// The de-optimized variants of the paper's ablation (Fig. 9) are exposed
// through Optimizations, so Non-opt-Newton and every intermediate design
// point is a configuration away.
package newton

import (
	"errors"
	"fmt"

	"newton/internal/dram"
	"newton/internal/fault"
	"newton/internal/host"
	"newton/internal/mem"
	"newton/internal/model"
)

// Optimizations toggles the paper's interface optimizations. The zero
// value is the fully de-optimized Non-opt-Newton.
type Optimizations struct {
	// GangedCompute: one compute command operates in all banks at once.
	GangedCompute bool
	// ComplexCommands: broadcast + column-read + multiply-add fuse into
	// the single COMP command.
	ComplexCommands bool
	// Reuse: the DRAM-row-wide chunk-interleaved layout with column-
	// major tile traversal (full input-vector reuse).
	Reuse bool
	// GangedActivation: one G_ACT activates a four-bank cluster.
	GangedActivation bool
	// AggressiveTFAW: the strengthened-voltage-regulator tFAW reduction
	// (a DRAM-die change rather than a controller change).
	AggressiveTFAW bool
	// OverlapBufferLoad: interleave global-buffer loads (column bus)
	// with row activations (row bus). This library's scheduler
	// refinement beyond the paper's five optimizations; on by default.
	OverlapBufferLoad bool
}

// AllOptimizations is the full Newton design point.
func AllOptimizations() Optimizations {
	return Optimizations{
		GangedCompute:     true,
		ComplexCommands:   true,
		Reuse:             true,
		GangedActivation:  true,
		AggressiveTFAW:    true,
		OverlapBufferLoad: true,
	}
}

// Config describes a Newton memory system.
type Config struct {
	// Channels is the number of (pseudo) channels; the paper evaluates
	// 24. Channels operate in parallel on shards of each matrix.
	Channels int
	// Banks per channel; 16 in the paper, with 8 and 32 explored in the
	// bank-sensitivity study. Must be a multiple of 4 (the G_ACT cluster
	// size) unless smaller than 4.
	Banks int
	// Opts selects the active optimizations.
	Opts Optimizations
	// NormExposureCycles is the exposed per-layer batch-normalization
	// latency in model runs (§III-C); DefaultConfig uses 100 cycles, and
	// -1 derives it from the geometry (one global-buffer chunk of host
	// normalization work: the next layer cannot start sooner). Values
	// below -1 are rejected.
	NormExposureCycles int64
	// LatchesPerBank is the number of result latches per bank (0 or 1 =
	// the shipped single-latch design). Four latches with Reuse off is
	// the §III-C intermediate design point the paper evaluated and
	// rejected.
	LatchesPerBank int
	// Fault configures the fault-injection and reliability subsystem
	// (fault.go). The zero value disables it entirely.
	Fault FaultConfig
	// Coexist attaches a conventional host-traffic workload and a QoS
	// policy to the system's shared channels (coexist.go). Nil means no
	// traffic: the channels carry AiM work only, exactly as before.
	Coexist *CoexistConfig
	// Verify attaches the independent conformance checker
	// (internal/conformance) to every channel's command stream; any
	// timing or protocol violation fails the run with a "verify:" error.
	Verify bool
}

// DefaultConfig is the paper's evaluation configuration: 24 channels,
// 16 banks, everything optimized.
func DefaultConfig() Config {
	return Config{Channels: 24, Banks: 16, Opts: AllOptimizations(), NormExposureCycles: 100}
}

// ErrInvalidConfig is wrapped by every error that rejects a Config
// field; the message names the field.
var ErrInvalidConfig = errors.New("newton: invalid config")

// check names the first field out of range, or returns "". The fault
// fields count only when Fault.Enabled.
func (c Config) check() string {
	f := c.Fault
	switch {
	case c.Channels < 1:
		return fmt.Sprintf("Channels must be >= 1, got %d", c.Channels)
	case c.Banks < 1:
		return fmt.Sprintf("Banks must be >= 1, got %d", c.Banks)
	case c.NormExposureCycles < host.AutoNormExposure:
		return fmt.Sprintf("NormExposureCycles must be >= %d, got %d", host.AutoNormExposure, c.NormExposureCycles)
	case c.LatchesPerBank < 0:
		return fmt.Sprintf("LatchesPerBank must be >= 0, got %d", c.LatchesPerBank)
	case f.Enabled && !(f.BER >= 0 && f.BER <= 1):
		return fmt.Sprintf("Fault.BER must be in [0, 1], got %g", f.BER)
	case f.Enabled && !(f.TransientBER >= 0 && f.TransientBER <= 1):
		return fmt.Sprintf("Fault.TransientBER must be in [0, 1], got %g", f.TransientBER)
	case f.Enabled && f.MaxPerWord < 0:
		return fmt.Sprintf("Fault.MaxPerWord must be >= 0, got %d", f.MaxPerWord)
	case f.Enabled && f.ScrubEvery < 0:
		return fmt.Sprintf("Fault.ScrubEvery must be >= 0, got %d", f.ScrubEvery)
	}
	return ""
}

// dramConfig checks the public Config and lowers it to the simulator's
// configuration. NewSystem, NewIdealBaseline, NewServer, NewCluster and
// Predict all call it.
func (c Config) dramConfig() (dram.Config, error) {
	if msg := c.check(); msg != "" {
		return dram.Config{}, fmt.Errorf("%w: %s", ErrInvalidConfig, msg)
	}
	geo := dram.HBM2EGeometry(c.Channels)
	geo.Banks = c.Banks
	if c.Banks < geo.BanksPerCluster {
		geo.BanksPerCluster = c.Banks
	}
	t := dram.ConventionalTiming()
	if c.Opts.AggressiveTFAW {
		t = dram.AiMTiming()
	}
	cfg := dram.Config{Geometry: geo, Timing: t}
	if err := cfg.Validate(); err != nil {
		return dram.Config{}, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	return cfg, nil
}

// hostOptions lowers the optimization set to the controller's options.
// The QoS selector is lowered separately (lowerCoexist) because it is
// validated against the whole coexistence configuration.
func (c Config) hostOptions() host.Options {
	return host.Options{
		GangedCompute:      c.Opts.GangedCompute,
		ComplexCommands:    c.Opts.ComplexCommands,
		Reuse:              c.Opts.Reuse,
		GangedActivation:   c.Opts.GangedActivation,
		OverlapBufferLoad:  c.Opts.OverlapBufferLoad,
		NormExposureCycles: c.NormExposureCycles,
		LatchesPerBank:     c.LatchesPerBank,
		Verify:             c.Verify,
	}
}

// Split divides a configuration's channels into independently operated
// sub-systems, the paper's multi-tenancy model (§III-D: Newton processes
// one ML model at a time per channel, but "different models can operate
// simultaneously in different channels"). Channels share nothing, so a
// partition behaves exactly like a smaller device; concurrent partitions'
// wall-clock time is the maximum of their clocks, not the sum.
//
// Split validates the partition exactly: it needs at least one part,
// every part must be >= 1 channel, and the parts must sum to exactly
// c.Channels — a partition never leaves channels idle and never
// oversubscribes them. Each returned sub-config inherits everything
// else (banks, options, fault plan) from c unchanged.
func (c Config) Split(parts ...int) ([]Config, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("newton: Split needs at least one part")
	}
	total := 0
	var out []Config
	for i, p := range parts {
		if p < 1 {
			return nil, fmt.Errorf("newton: partition %d has %d channels", i, p)
		}
		total += p
		sub := c
		sub.Channels = p
		out = append(out, sub)
	}
	if total != c.Channels {
		return nil, fmt.Errorf("newton: partitions use %d channels, system has %d", total, c.Channels)
	}
	return out, nil
}

// Predict evaluates the paper's §III-F analytic model for the
// configuration: Newton's predicted speedup over the ideal non-PIM
// system, n/(o+1).
func Predict(cfg Config) (float64, error) {
	dcfg, err := cfg.dramConfig()
	if err != nil {
		return 0, err
	}
	return model.FromConfig(dcfg).Speedup(), nil
}

// System is a Newton memory system: simulated AiM DRAM plus the host
// memory controller driving it.
type System struct {
	cfg  Config
	dcfg dram.Config
	ctrl *host.Controller

	// Fault-subsystem state (fault.go); all nil/zero when disabled.
	inj        *fault.Injector
	transient  *fault.TransientInjector
	injected   FaultReport
	scrubTotal ScrubReport
	sinceScrub int

	// fobs publishes fault-subsystem metrics when Observe attached a
	// registry to a fault-enabled system (obs.go).
	fobs *fault.Metrics
}

// NewSystem builds a Newton system.
func NewSystem(cfg Config) (*System, error) {
	dcfg, err := cfg.dramConfig()
	if err != nil {
		return nil, err
	}
	opts := cfg.hostOptions()
	var tcfg mem.TrafficConfig
	if cfg.Coexist != nil {
		var qos mem.QoS
		if tcfg, qos, err = cfg.lowerCoexist(); err != nil {
			return nil, err
		}
		opts.QoS = qos
	}
	ctrl, err := host.NewController(dcfg, opts)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, dcfg: dcfg, ctrl: ctrl}
	if cfg.Coexist != nil {
		if err := s.attachCoexist(tcfg); err != nil {
			return nil, err
		}
	}
	s.setupFaults()
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Now returns the system's clock in cycles (nanoseconds at the 1 GHz
// command clock). It advances across calls, so successive products see
// the refresh schedule a real device would.
func (s *System) Now() int64 { return s.ctrl.Now() }
