package fault

import "newton/internal/obs"

// Metrics lowers the reliability subsystem's reports into an
// observability registry: injection counters, the transient-upset
// total, and the oracle's silent-data-corruption view. A nil *Metrics
// (or one built over a nil registry) is a no-op, so callers can wire it
// unconditionally.
type Metrics struct {
	flips     *obs.Counter
	words     *obs.Counter
	exposures *obs.Counter

	transient *obs.Gauge

	audits   *obs.Counter
	sdcWords *obs.Gauge
	sdcBits  *obs.Gauge
}

// NewMetrics pre-registers the fault series. Returns a usable no-op
// publisher when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	if reg == nil {
		return m
	}
	m.flips = reg.Counter("newton_fault_injected_flips_total",
		"BER-driven retention bit flips injected into stored rows")
	m.words = reg.Counter("newton_fault_words_touched_total",
		"distinct 64-bit ECC words with at least one injected flip")
	m.exposures = reg.Counter("newton_fault_exposures_total",
		"fault exposure intervals applied (InjectFaults calls)")
	m.transient = reg.Gauge("newton_fault_transient_flips",
		"running total of COMP-gated transient upsets (supply-noise model)")
	m.audits = reg.Counter("newton_fault_audits_total",
		"oracle audits of DRAM contents against the golden matrix image")
	m.sdcWords = reg.Gauge("newton_fault_sdc_words",
		"64-bit words silently corrupted at the last audit (escaped correction)")
	m.sdcBits = reg.Gauge("newton_fault_sdc_bits",
		"bits silently corrupted at the last audit")
	return m
}

// PublishReport accumulates one injection pass.
func (m *Metrics) PublishReport(rep Report) {
	if m == nil {
		return
	}
	m.exposures.Inc()
	m.flips.Add(rep.FlippedBits)
	m.words.Add(rep.WordsTouched)
}

// PublishAudit records the oracle's latest silent-corruption snapshot.
// The SDC series are gauges, not counters: each audit re-measures the
// whole placement, so the latest value is the truth and sums across
// audits would double-count surviving corruption.
func (m *Metrics) PublishAudit(a AuditReport) {
	if m == nil {
		return
	}
	m.audits.Inc()
	m.sdcWords.SetInt(a.BadWords)
	m.sdcBits.SetInt(a.BadBits)
}

// PublishTransient records the transient injector's running flip total.
func (m *Metrics) PublishTransient(total int64) {
	if m == nil {
		return
	}
	m.transient.SetInt(total)
}
