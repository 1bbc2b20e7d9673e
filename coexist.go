package newton

import (
	"fmt"

	"newton/internal/host"
	"newton/internal/mem"
)

// TrafficPolicy selects how a system with conventional traffic attached
// (Config.Coexist) arbitrates its shared channels between AiM work and
// host requests. The zero value is PolicyPIMPriority, which schedules
// exactly like a system with no traffic attached.
type TrafficPolicy = mem.Policy

const (
	// PolicyPIMPriority never perturbs a running product: conventional
	// requests wait for idle gaps between runs.
	PolicyPIMPriority = mem.PIMPriority
	// PolicyMemPriority serves every arrived conventional request at
	// each arbitration point before AiM work continues.
	PolicyMemPriority = mem.MemPriority
	// PolicyFairSlice grants the host a configurable share of each
	// fixed epoch's cycles (CoexistConfig.EpochCycles, HostShare).
	PolicyFairSlice = mem.FairSlice
)

// TrafficLocality selects the row-locality profile of the generated
// conventional stream.
type TrafficLocality = mem.Locality

const (
	// TrafficHitStreak issues fixed-length back-to-back bursts to one
	// (bank, row): a high row-hit-rate stream.
	TrafficHitStreak = mem.LocalityHit
	// TrafficStride walks columns by a fixed step, advancing rows on
	// wrap-around.
	TrafficStride = mem.LocalityStride
	// TrafficUniform draws bank, row and column uniformly: the
	// worst-case, near-zero-hit profile.
	TrafficUniform = mem.LocalityUniform
)

// TrafficConfig describes the conventional workload a coexisting system
// carries: a seeded per-channel Poisson arrival process over a small
// per-bank row region at the conventional end of the row space (the
// paper's §III-A same-row restriction — AiM matrices and ordinary data
// share banks but never a DRAM row).
type TrafficConfig = mem.TrafficConfig

// CoexistConfig attaches a conventional workload and a QoS policy to a
// system (Config.Coexist). Requests accumulate in virtual time as the
// system's clock advances; how much of that backlog is served while
// products are in flight is the Policy's decision, and DrainTraffic
// serves the remainder in idle gaps.
type CoexistConfig struct {
	// Traffic is the offered conventional workload.
	Traffic TrafficConfig
	// Policy arbitrates the shared channels. Zero is PolicyPIMPriority.
	Policy TrafficPolicy
	// EpochCycles is the PolicyFairSlice epoch length in cycles (0 =
	// default 8192).
	EpochCycles int64
	// HostShare is the fraction of each PolicyFairSlice epoch the host
	// class may consume, in (0, 1] (0 = default 0.5).
	HostShare float64
}

// lowerCoexist validates the façade coexistence configuration and
// lowers its QoS selector. It mirrors Split's exact-validation stance:
// every error names the offending field before any state is built.
func (c Config) lowerCoexist() (mem.QoS, error) {
	cx := c.Coexist
	switch cx.Policy {
	case PolicyPIMPriority, PolicyMemPriority, PolicyFairSlice:
	default:
		return mem.QoS{}, fmt.Errorf("newton: Coexist.Policy %d is not a TrafficPolicy", int(cx.Policy))
	}
	switch cx.Traffic.Locality {
	case TrafficHitStreak, TrafficStride, TrafficUniform:
	default:
		return mem.QoS{}, fmt.Errorf("newton: Coexist.Traffic.Locality %d is not a TrafficLocality", int(cx.Traffic.Locality))
	}
	if err := cx.Traffic.Validate(); err != nil {
		return mem.QoS{}, fmt.Errorf("newton: Coexist.Traffic: %v", err)
	}
	qos := mem.QoS{Policy: cx.Policy, EpochCycles: cx.EpochCycles, HostShare: cx.HostShare}
	if err := qos.Validate(); err != nil {
		return mem.QoS{}, fmt.Errorf("newton: Coexist: %v", err)
	}
	return qos, nil
}

// attachCoexist instantiates the workload over the built system's
// geometry and installs it on the controller.
func (s *System) attachCoexist() error {
	g := s.dcfg.Geometry
	t, err := mem.New(s.cfg.Coexist.Traffic, g.Channels, g.Banks, g.Cols, g.ColBytes())
	if err != nil {
		return fmt.Errorf("newton: Coexist: %v", err)
	}
	if err := s.ctrl.AttachTraffic(t); err != nil {
		return fmt.Errorf("newton: Coexist: %v", err)
	}
	return nil
}

// DrainTraffic serves, in the idle gap at the current clock, every
// conventional request that has arrived so far (on a system built with
// Config.Coexist). Service itself takes simulated time, so requests
// arriving during the drain stay queued for the next call — like a real
// controller, the backlog only empties when offered load stays below
// service rate.
func (s *System) DrainTraffic() error {
	if s.cfg.Coexist == nil {
		return fmt.Errorf("newton: DrainTraffic on a system without Config.Coexist")
	}
	return s.ctrl.ServiceArrivedTraffic()
}

// TrafficStats summarizes the conventional workload's service so far on
// a coexisting system: request counts, bytes and latency percentiles
// (Requests … Max, Mean), the in-run and between-run bytes, and the PIM
// stall cycles in-run service cost.
type TrafficStats = host.TrafficReport

// TrafficStats reports the attached workload's service; the zero value
// on a system without Config.Coexist.
func (s *System) TrafficStats() TrafficStats { return s.ctrl.TrafficReport() }

// TrafficPending reports whether generated-but-unserviced conventional
// requests are queued at the current clock.
func (s *System) TrafficPending() bool {
	return s.cfg.Coexist != nil && s.ctrl.TrafficPending()
}
