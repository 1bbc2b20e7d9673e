package newton

import (
	"net/http"

	"newton/internal/fault"
	"newton/internal/obs"
)

// Observability façade: the root package re-exports the internal/obs
// subsystem so embedders can meter a System, an IdealBaseline, and a
// serving fleet without importing internal packages.
//
// One registry and one tracer can be shared across all of them — every
// series is labeled by its source device and every metric is
// keyed on virtual time, so a shared registry stays byte-identical
// across identical runs. Passing nil everywhere keeps the simulator's
// hot path at its benchmarked allocation budget: observability off
// costs one pointer check per run.
type (
	// ObsRegistry is a deterministic, label-aware metrics registry
	// (counters, gauges, fixed-bucket histograms).
	ObsRegistry = obs.Registry
	// ObsTracer records request- and run-scoped spans stamped with
	// simulator cycles.
	ObsTracer = obs.Tracer
	// ObsSpan is one recorded span.
	ObsSpan = obs.Span
	// ObsSnapshot is the JSON view of a registry (and optional trace).
	ObsSnapshot = obs.Snapshot
)

// NewObsRegistry builds an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// ObsHandler serves the registry over HTTP: /metrics (Prometheus text
// exposition) and /snapshot (JSON, including the tracer's spans when
// one is given). Mount it on any mux; newton serve and newton cluster
// wire it to -listen together with net/http/pprof.
func ObsHandler(reg *ObsRegistry, tracer *ObsTracer) http.Handler {
	return obs.Handler(reg, tracer)
}

// Observe attaches observability to the system. The controller
// publishes per-MVM metrics and spans (command mix, cycle counts, the
// §III-F self-check ratio, conformance and scrub counters, under
// device="newton"); the fault subsystem, when enabled, publishes
// injection and silent-corruption series. Passing nil for both
// detaches.
func (s *System) Observe(reg *ObsRegistry, tracer *ObsTracer) {
	s.ctrl.Observe(reg, tracer)
	if reg == nil && tracer == nil {
		s.fobs = nil
		return
	}
	if s.cfg.Fault.Enabled {
		s.fobs = fault.NewMetrics(reg)
	}
}

// Observe attaches observability to the ideal baseline (metrics under
// device="ideal"). Passing nil for both detaches.
func (b *IdealBaseline) Observe(reg *ObsRegistry, tracer *ObsTracer) {
	b.h.Observe(reg, tracer)
}
