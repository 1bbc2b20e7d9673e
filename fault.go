package newton

import (
	"fmt"

	"newton/internal/aim"
	"newton/internal/dram"
	"newton/internal/fault"
	"newton/internal/host"
	"newton/internal/power"
)

// FaultConfig configures the fault-injection and reliability subsystem.
// Newton's AiM compute reads DRAM cells without the controller's ECC in
// the path (§III-E), so the long-resident weight matrix is the exposed
// surface: this models it end to end — injected cell faults, host-side
// SEC-DED(72,64) protection with periodic scrub, and the residual silent
// corruption that escapes both.
type FaultConfig struct {
	// Enabled turns the subsystem on. When false every other field is
	// ignored and the system behaves exactly as before.
	Enabled bool
	// Seed drives all fault randomness; same seed, same faults.
	Seed int64
	// BER is the per-bit retention-flip probability per exposure
	// (InjectFaults call) over the stored weight rows.
	BER float64
	// MaxPerWord caps BER flips per 64-bit ECC word per exposure
	// (0 = uncapped). 1 keeps every exposure within SEC-DED's
	// correction guarantee.
	MaxPerWord int
	// TransientBER is the per-bit upset probability per compute column
	// access (COMP, COMP_BK or COLRD), scaled by the compute-power
	// stress factor (power.CompStress): the supply-noise model for
	// in-DRAM compute.
	TransientBER float64
	// ECC enables the host-side SEC-DED(72,64) store: check bits are
	// computed when a matrix is loaded and validated by ScrubECC.
	ECC bool
	// ScrubEvery runs the configured scrub automatically after every N
	// matrix-vector products (the paper suggests ~1000 inputs); 0
	// disables auto-scrub.
	ScrubEvery int
}

// Fault subsystem result types, shared with the internal packages.
type (
	// FaultReport counts one injection pass (or the running total).
	FaultReport = fault.Report
	// FaultAudit is the oracle's count of residual silent corruption.
	FaultAudit = fault.AuditReport
	// ScrubReport summarizes ECC scrub passes.
	ScrubReport = host.ScrubReport
)

// FaultStats aggregates the system's reliability counters.
type FaultStats struct {
	// Injected is the running total over all InjectFaults calls.
	Injected FaultReport
	// Scrub is the running total over all ECC scrub passes.
	Scrub ScrubReport
	// TransientFlips counts COMP-gated transient upsets so far.
	TransientFlips int64
}

// setupFaults wires the fault machinery a configuration asks for. Called
// once from NewSystem.
func (s *System) setupFaults() {
	f := s.cfg.Fault
	if !f.Enabled {
		return
	}
	s.inj = fault.NewInjector(s.faultParams())
	if f.TransientBER > 0 {
		s.transient = fault.NewTransientInjector(s.faultParams(), s.channels())
		// The transient model rides the command-trace hook. Callers that
		// install their own Trace afterwards (newton-trace) replace it
		// and silence transient injection for that run.
		s.ctrl.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
			s.transient.OnCommand(ch, cmd)
		}
	}
}

// faultParams lowers FaultConfig to the internal parameter set, deriving
// the transient stress factor from the power model's COMP/read ratio.
func (s *System) faultParams() fault.Params {
	f := s.cfg.Fault
	return fault.Params{
		Seed:            f.Seed,
		BER:             f.BER,
		MaxPerWord:      f.MaxPerWord,
		TransientBER:    f.TransientBER,
		TransientStress: power.CompStress(power.DefaultEvents(), s.dcfg.Geometry.Banks),
	}
}

// channels lists the controller's DRAM channels in order.
func (s *System) channels() []*dram.Channel {
	chs := make([]*dram.Channel, s.dcfg.Geometry.Channels)
	for i := range chs {
		chs[i] = s.ctrl.Engine(i).Channel()
	}
	return chs
}

// InjectFaults applies one exposure interval of the configured fault
// models to a placed matrix's DRAM rows. Successive calls continue the
// same seeded PRNG stream, so a campaign of k exposures is as
// deterministic as one.
func (s *System) InjectFaults(pm *PlacedMatrix) (FaultReport, error) {
	if err := pm.on(s); err != nil {
		return FaultReport{}, err
	}
	if s.inj == nil {
		return FaultReport{}, fmt.Errorf("newton: fault injection is not enabled (Config.Fault)")
	}
	rep, err := s.inj.Expose(pm.p, s.channels())
	if err != nil {
		return rep, err
	}
	s.injected.Add(rep)
	s.fobs.PublishReport(rep)
	s.publishTransient()
	return rep, nil
}

// publishTransient refreshes the transient-upset gauge from the
// injector's running total (the flips accrue inside RunMVM via the
// trace hook, so every fault entry point re-publishes the latest).
func (s *System) publishTransient() {
	if s.transient != nil {
		s.fobs.PublishTransient(s.transient.Flips)
	}
}

// ScrubECC walks a placed matrix over the external interface, checking
// every 64-bit word against its host-side SEC-DED bits: single-bit
// errors are corrected in place, uncorrectable words are refetched from
// the host's golden copy, and only dirty columns are rewritten. The
// pass runs on the simulated clock like any other controller operation.
func (s *System) ScrubECC(pm *PlacedMatrix) (ScrubReport, error) {
	if err := pm.on(s); err != nil {
		return ScrubReport{}, err
	}
	if pm.ecc == nil {
		return ScrubReport{}, fmt.Errorf("newton: matrix was loaded without ECC (Config.Fault.ECC)")
	}
	rep, err := s.ctrl.ScrubECC(pm.p, pm.ecc)
	if err != nil {
		return rep, err
	}
	s.scrubTotal.Add(rep)
	return rep, nil
}

// ScrubPeriodically counts one served input against the
// Fault.ScrubEvery cadence and runs the configured scrub when due — the
// ECC scrub when the matrix carries a check store, the paper's blind
// §III-E re-load otherwise. MatVec calls it after every product;
// callers driving the controller directly can call it themselves. It
// reports whether a scrub ran.
func (s *System) ScrubPeriodically(pm *PlacedMatrix) (bool, error) {
	if err := pm.on(s); err != nil {
		return false, err
	}
	f := s.cfg.Fault
	if !f.Enabled || f.ScrubEvery <= 0 {
		return false, nil
	}
	s.sinceScrub++
	if s.sinceScrub < f.ScrubEvery {
		return false, nil
	}
	s.sinceScrub = 0
	if pm.ecc != nil {
		_, err := s.ScrubECC(pm)
		return true, err
	}
	return true, s.Scrub(pm)
}

// AuditFaults compares a placed matrix's DRAM contents word by word
// against the host's golden copy — the oracle view of silent data
// corruption. It costs no simulated time.
func (s *System) AuditFaults(pm *PlacedMatrix) (FaultAudit, error) {
	if err := pm.on(s); err != nil {
		return FaultAudit{}, err
	}
	rep, err := fault.Audit(pm.p, s.channels())
	if err != nil {
		return rep, err
	}
	s.fobs.PublishAudit(rep)
	s.publishTransient()
	return rep, nil
}

// FaultStats returns the system's running reliability counters.
func (s *System) FaultStats() FaultStats {
	st := FaultStats{Injected: s.injected, Scrub: s.scrubTotal}
	if s.transient != nil {
		st.TransientFlips = s.transient.Flips
	}
	return st
}
