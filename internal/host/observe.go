package host

import (
	"fmt"
	"strconv"

	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/obs"
)

// hostObs is the host layer's observability state: pre-registered
// metric handles (registration allocates; publishing must not) plus the
// bookkeeping that turns cumulative suite counters into per-run deltas.
// The Newton controller and the ideal baseline's controller each carry
// one, distinguished by the device label, so a differential experiment
// exposes both sides.
type hostObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	mvms       *obs.Counter
	cycles     *obs.Counter
	cyclesHist *obs.Histogram
	cmds       []*obs.Counter // indexed by dram.Kind
	selfcheck  *obs.Gauge
	selferr    *obs.Gauge

	verified     *obs.Counter
	violations   *obs.Counter
	lastCommands int64
	lastViolated int64

	scrubPasses    *obs.Counter
	scrubWords     *obs.Counter
	scrubCorrected *obs.Counter
	scrubDetected  *obs.Counter
	scrubRefetched *obs.Counter

	convReads  *obs.Counter
	convWrites *obs.Counter
	convBytes  *obs.Counter
	convLat    *obs.Histogram
	pimStall   *obs.Counter
}

// mvmCycleBuckets spans one MVM's wall time, from a DLRM-size layer on
// many channels (~10 us) to de-optimized ladder points (~100 ms).
var mvmCycleBuckets = obs.ExpBuckets(1024, 2, 20)

// convLatBuckets spans a conventional request's latency, from an
// uncontended row hit (~tAA) to requests queued behind a whole run.
var convLatBuckets = obs.ExpBuckets(16, 2, 24)

// newHostObs pre-registers every handle the per-run publisher touches.
// device distinguishes the Newton controller from the ideal baseline.
// With neither a registry nor a tracer there is nothing to publish to,
// and it returns nil.
func newHostObs(reg *obs.Registry, tracer *obs.Tracer, device string) *hostObs {
	if reg == nil && tracer == nil {
		return nil
	}
	o := &hostObs{reg: reg, tracer: tracer}
	if reg == nil {
		return o
	}
	dev := obs.L("device", device)
	o.mvms = reg.Counter("newton_host_mvms_total",
		"matrix-vector products executed", dev)
	o.cycles = reg.Counter("newton_host_mvm_cycles_total",
		"command-clock cycles spent in MVMs (slowest channel per run)", dev)
	o.cyclesHist = reg.Histogram("newton_host_mvm_cycles",
		"per-MVM duration in command-clock cycles", mvmCycleBuckets, dev)
	o.cmds = make([]*obs.Counter, int(dram.KindREADRES)+1)
	for k := dram.KindACT; k <= dram.KindREADRES; k++ {
		o.cmds[k] = reg.Counter("newton_host_commands_total",
			"DRAM/AiM commands issued, by mnemonic", dev, obs.L("kind", k.String()))
	}
	o.selfcheck = reg.Gauge("newton_host_selfcheck_ratio",
		"measured/predicted per-channel cycles against the paper's closed-form model (1.0 = agreement; 0 until a ganged run)", dev)
	o.selferr = reg.Gauge("newton_host_selfcheck_error_pct",
		"signed divergence of measured cycles from the closed-form prediction", dev)
	o.verified = reg.Counter("newton_host_verified_commands_total",
		"commands checked by the conformance suite", dev)
	o.violations = reg.Counter("newton_host_conformance_violations_total",
		"conformance violations reported by the checker", dev)
	o.scrubPasses = reg.Counter("newton_host_scrub_passes_total",
		"ECC scrub passes over placed matrices", dev)
	o.scrubWords = reg.Counter("newton_host_scrub_words_total",
		"64-bit words checked against their SEC-DED bits", dev)
	o.scrubCorrected = reg.Counter("newton_host_scrub_corrected_total",
		"single-bit errors corrected in place by scrub", dev)
	o.scrubDetected = reg.Counter("newton_host_scrub_detected_total",
		"uncorrectable words flagged by SEC-DED during scrub", dev)
	o.scrubRefetched = reg.Counter("newton_host_scrub_refetched_total",
		"detected words rewritten from the host's golden copy", dev)
	o.convReads = reg.Counter("newton_host_conv_requests_total",
		"conventional host requests serviced, by operation", dev, obs.L("op", "read"))
	o.convWrites = reg.Counter("newton_host_conv_requests_total",
		"conventional host requests serviced, by operation", dev, obs.L("op", "write"))
	o.convBytes = reg.Counter("newton_host_conv_bytes_total",
		"conventional bytes moved over the shared channels", dev)
	o.convLat = reg.Histogram("newton_host_conv_latency_cycles",
		"conventional request latency, arrival to completion", convLatBuckets, dev)
	o.pimStall = reg.Counter("newton_host_pim_stall_cycles_total",
		"cycles AiM work waited on in-run conventional service", dev)
	return o
}

// publishTraffic lowers the attached workload's service since the last
// publish into the registry. Like publishRun it is called on the
// RunMVM caller's goroutine (or from ServiceArrivedTraffic) after any
// parallel section has joined, so the per-channel high-water marks
// need no synchronization.
func (o *hostObs) publishTraffic(st *trafficState) {
	if o == nil || o.reg == nil || st == nil {
		return
	}
	cb := int64(st.t.ColBytes())
	for _, ct := range st.perCh {
		recs := ct.stream.Records()
		for _, r := range recs[ct.pubIdx:] {
			if r.Write {
				o.convWrites.Inc()
			} else {
				o.convReads.Inc()
			}
			o.convLat.Observe(float64(r.Latency()))
		}
		o.convBytes.Add(int64(len(recs)-ct.pubIdx) * cb)
		ct.pubIdx = len(recs)
		o.pimStall.Add(ct.stall - ct.pubStall)
		ct.pubStall = ct.stall
	}
}

// publishScrub lowers one finished ECC scrub pass into the registry.
func (o *hostObs) publishScrub(rep *ScrubReport) {
	if o == nil || o.reg == nil {
		return
	}
	o.scrubPasses.Inc()
	o.scrubWords.Add(rep.WordsChecked)
	o.scrubCorrected.Add(rep.Corrected)
	o.scrubDetected.Add(rep.Detected)
	o.scrubRefetched.Add(rep.Refetched)
}

// publishRun lowers one finished MVM into the registry and tracer. It
// runs on the caller's goroutine after the run's parallel section has
// joined, so it needs no synchronization beyond the handles' atomics
// and keeps the per-command hot path untouched.
func (o *hostObs) publishRun(cfg dram.Config, res *Result, verify *conformance.Suite) {
	if o == nil {
		return
	}
	if o.reg != nil {
		o.mvms.Inc()
		o.cycles.Add(res.Cycles)
		o.cyclesHist.Observe(float64(res.Cycles))
		for k := dram.KindACT; k <= dram.KindREADRES; k++ {
			o.cmds[k].Add(res.Stats.Count(k))
		}
		if check := obs.PredictMVM(cfg, res.Stats, meanBusy(res.PerChannelCycles)); check.PredictedCycles > 0 {
			o.selfcheck.Set(check.Ratio())
			o.selferr.Set(check.ErrorPct())
		}
		if verify != nil {
			cmds := verify.Commands()
			o.verified.Add(cmds - o.lastCommands)
			o.lastCommands = cmds
			viol := int64(len(verify.Violations()))
			o.violations.Add(viol - o.lastViolated)
			o.lastViolated = viol
		}
	}
	if o.tracer != nil {
		root := o.tracer.Span("host", "mvm",
			float64(res.StartCycle), float64(res.EndCycle), 0,
			obs.Arg{Key: "cycles", Value: strconv.FormatInt(res.Cycles, 10)},
			obs.Arg{Key: "commands", Value: strconv.FormatInt(res.Stats.TotalCommands(), 10)})
		for ch, busy := range res.PerChannelCycles {
			o.tracer.Span("host", fmt.Sprintf("ch%d", ch),
				float64(res.StartCycle), float64(res.StartCycle+busy), root)
		}
	}
}

// meanBusy averages the per-channel busy durations: the quantity the
// §III-F closed form predicts (its terms are per-channel, and the
// channel shards may be ragged by one tile).
func meanBusy(perChannel []int64) float64 {
	if len(perChannel) == 0 {
		return 0
	}
	var sum int64
	for _, c := range perChannel {
		sum += c
	}
	return float64(sum) / float64(len(perChannel))
}

// Observe attaches an observability registry and/or span tracer to the
// controller. Metrics publish once per RunMVM (per-MVM command mix,
// cycle counts, conformance counters, the §III-F self-check ratio) from
// the RunMVM caller's goroutine; the hot command path is untouched, so
// a nil registry — or none at all — keeps RunMVM at its benchmarked
// allocation budget. Passing nil for both detaches.
func (c *Controller) Observe(reg *obs.Registry, tracer *obs.Tracer) {
	c.obs = newHostObs(reg, tracer, "newton")
}
