package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"newton/internal/cluster"
	"newton/internal/dram"
	"newton/internal/fault"
	"newton/internal/host"
	"newton/internal/nn"
	"newton/internal/par"
	"newton/internal/serve"
)

// FaultBERs is the campaign's default retention-error sweep: raw
// bit-error rates over the stored weight rows, from "a handful of weak
// cells" to "refresh has effectively stopped working".
var FaultBERs = []float64{1e-6, 1e-5, 1e-4, 1e-3}

// FaultSeed offsets the config seed for the injection PRNG, so the
// fault pattern is decoupled from the weight pattern.
const FaultSeed = 7919

// FaultPoint is one (BER, protection) cell of the reliability
// campaign: a model is loaded, faults are injected into its stored
// rows, the protection pipeline (SEC-DED scrub) runs or doesn't, and
// the same inference is compared against the pre-fault golden run.
type FaultPoint struct {
	// BER is the injected raw bit-error rate; Protected tells whether
	// the SEC-DED(72,64) scrub ran before inference.
	BER       float64
	Protected bool
	// Injected counts flipped bits; WordsTouched the distinct 64-bit
	// words they landed in.
	Injected, WordsTouched int64
	// Corrected / Detected / Refetched are the scrub's counters (zero
	// when unprotected): single-bit words repaired in place,
	// multi-bit words caught by the code, and detected words restored
	// from the host's golden copy.
	Corrected, Detected, Refetched int64
	// SDCWords / SDCBits measure silent data corruption: words still
	// wrong after protection had its chance (every touched word, when
	// unprotected).
	SDCWords, SDCBits int64
	// RelL2 and MaxULP compare the faulted inference output against
	// the golden run: relative L2 error and worst per-element ULP
	// distance. Both are exactly 0 when protection restored every bit.
	RelL2  float64
	MaxULP uint64
	// Availability is the served fraction of a Poisson stream under
	// the serving engine's detect-and-retry model at this point's
	// measured detection rate (1 = every request answered).
	Availability float64
}

// MarshalJSON encodes the point for newton bench's -json output.
// RelL2 can be +Inf or NaN (an uncorrected flip in an exponent bit),
// which JSON numbers cannot represent, so non-finite values become
// strings.
func (p FaultPoint) MarshalJSON() ([]byte, error) {
	type alias FaultPoint
	aux := struct {
		alias
		RelL2 any
	}{alias: alias(p), RelL2: p.RelL2}
	if math.IsInf(p.RelL2, 0) || math.IsNaN(p.RelL2) {
		aux.RelL2 = fmt.Sprintf("%g", p.RelL2)
	}
	return json.Marshal(aux)
}

// Mode names the protection column.
func (p FaultPoint) Mode() string {
	if p.Protected {
		return "ecc+scrub"
	}
	return "unprotected"
}

// FaultSummary carries the campaign's fixed parameters.
type FaultSummary struct {
	// Model is the inference workload; Layers its depth; Words the
	// 64-bit codewords its stored rows occupy.
	Model  string
	Layers int
	Words  int64
	// MaxPerWord caps injected flips per word (0 = uncapped).
	MaxPerWord int
	// Requests is the availability stream length; ServiceNs the
	// measured end-to-end inference time used as its service time.
	Requests  int
	ServiceNs float64
}

// faultModel is the campaign workload: a small two-layer MLP, big
// enough that BER sweeps hit real flips, small enough to re-place for
// every campaign cell.
func faultModel() nn.Model {
	return nn.Model{Name: "fault-mlp", Layers: []nn.Layer{
		{Name: "fc1", Rows: 256, Cols: 512, Act: nn.ReLU},
		{Name: "fc2", Rows: 64, Cols: 256, Act: nn.None},
	}}
}

// faultBERs returns the active sweep.
func (c Config) faultBERs() []float64 {
	if c.FaultBERs != nil {
		return c.FaultBERs
	}
	return FaultBERs
}

// faultRequests returns the availability stream length.
func (c Config) faultRequests() int {
	if c.ServingN > 0 {
		return c.ServingN
	}
	return 2000
}

// controllerChannels collects the controller's DRAM channels for the
// fault package's storage-level hooks.
func controllerChannels(ctrl *host.Controller, n int) []*dram.Channel {
	chs := make([]*dram.Channel, n)
	for i := range chs {
		chs[i] = ctrl.Engine(i).Channel()
	}
	return chs
}

// FaultCampaign sweeps BER x {protected, unprotected} and measures,
// for each cell: injection counters, scrub counters, silent data
// corruption (a storage audit against the golden matrices), inference
// accuracy loss (rel-L2 / max-ULP against the golden output), and
// serve-layer availability under detect-and-retry. Everything is
// seeded and virtual-time, so a (Config, sweep) pair always produces
// the identical report.
func (c Config) FaultCampaign() ([]FaultPoint, FaultSummary, error) {
	spec := faultModel()
	sum := FaultSummary{
		Model:      spec.Name,
		Layers:     len(spec.Layers),
		MaxPerWord: c.FaultMaxPerWord,
		Requests:   c.faultRequests(),
	}
	// Flatten the BER x protection grid: every cell builds its own
	// device, injector and serve stream from the config seed, so the
	// cells run concurrently on the sweep pool.
	type cell struct {
		ber       float64
		protected bool
	}
	var cells []cell
	for _, ber := range c.faultBERs() {
		for _, protected := range []bool{true, false} {
			cells = append(cells, cell{ber, protected})
		}
	}
	points := make([]FaultPoint, len(cells))
	facts := make([]faultFacts, len(cells))
	err := par.ForEachErr(c.sweepWorkers(), len(cells), func(i int) error {
		pt, ff, err := c.faultPoint(spec, cells[i].ber, cells[i].protected)
		if err != nil {
			return fmt.Errorf("fault campaign ber=%g protected=%v: %w", cells[i].ber, cells[i].protected, err)
		}
		points[i] = pt
		facts[i] = ff
		return nil
	})
	if err != nil {
		return nil, sum, err
	}
	// Words and ServiceNs are measured before any injection, so every
	// cell reports the same values; record the first cell's.
	if len(facts) > 0 {
		sum.Words = facts[0].words
		sum.ServiceNs = facts[0].serviceNs
	}
	return points, sum, nil
}

// faultFacts are the injection-independent measurements a campaign cell
// makes on its clean device (identical across cells).
type faultFacts struct {
	words     int64
	serviceNs float64
}

// faultPoint runs one campaign cell on a fresh device.
func (c Config) faultPoint(spec nn.Model, ber float64, protected bool) (FaultPoint, faultFacts, error) {
	dcfg := c.dramConfig(c.Banks, true)
	opts := host.Newton()
	opts.Verify = c.Verify
	opts.Oracle = c.Oracle
	opts.Parallel = c.hostParallel()
	ctrl, err := host.NewController(dcfg, opts)
	if err != nil {
		return FaultPoint{}, faultFacts{}, err
	}
	pm, err := nn.PlaceModel(ctrl, spec, c.Seed)
	if err != nil {
		return FaultPoint{}, faultFacts{}, err
	}
	chs := controllerChannels(ctrl, dcfg.Geometry.Channels)

	// Encode-on-place: the host records check bytes while the rows are
	// still clean.
	var stores []*fault.Store
	if protected {
		for _, p := range pm.Placements {
			st, err := fault.NewStore(p, chs)
			if err != nil {
				return FaultPoint{}, faultFacts{}, err
			}
			stores = append(stores, st)
		}
	}
	var words int64
	for _, p := range pm.Placements {
		a, err := fault.Audit(p, chs)
		if err != nil {
			return FaultPoint{}, faultFacts{}, err
		}
		words += a.Words
	}

	input := c.inputFor(spec.InputWidth()).Float32Slice()
	golden, err := nn.Run(ctrl, pm, input, 0)
	if err != nil {
		return FaultPoint{}, faultFacts{}, err
	}
	ff := faultFacts{words: words, serviceNs: float64(golden.Cycles)}

	pt := FaultPoint{BER: ber, Protected: protected}
	inj := fault.NewInjector(fault.Params{
		Seed:       c.Seed + FaultSeed,
		BER:        ber,
		MaxPerWord: c.FaultMaxPerWord,
	})
	for _, p := range pm.Placements {
		rep, err := inj.Expose(p, chs)
		if err != nil {
			return FaultPoint{}, faultFacts{}, err
		}
		pt.Injected += rep.FlippedBits
		pt.WordsTouched += rep.WordsTouched
	}

	if protected {
		for i, p := range pm.Placements {
			srep, err := ctrl.ScrubECC(p, stores[i])
			if err != nil {
				return FaultPoint{}, faultFacts{}, err
			}
			pt.Corrected += srep.Corrected
			pt.Detected += srep.Detected
			pt.Refetched += srep.Refetched
		}
	}

	for _, p := range pm.Placements {
		a, err := fault.Audit(p, chs)
		if err != nil {
			return FaultPoint{}, faultFacts{}, err
		}
		pt.SDCWords += a.BadWords
		pt.SDCBits += a.BadBits
	}

	faulted, err := nn.Run(ctrl, pm, input, 0)
	if err != nil {
		return FaultPoint{}, faultFacts{}, err
	}
	pt.RelL2 = fault.RelL2(faulted.Output, golden.Output)
	pt.MaxULP = fault.MaxULP32(faulted.Output, golden.Output)
	if pt.Availability, err = c.faultAvailability(pt, words, float64(golden.Cycles)); err != nil {
		return FaultPoint{}, faultFacts{}, err
	}
	return pt, ff, nil
}

// faultAvailability models the serving consequence of this cell's
// measured detection rate: between scrubs, a detected-uncorrectable
// word forces a launch retry (cluster.RetryPlan), so the per-launch
// detection probability is 1-(1-perWord)^words over the inference's
// word footprint. The modeled stream is Poisson at half the device's
// service rate — a busy but unsaturated shard. Unprotected cells never
// detect anything, so they "serve" everything (possibly wrongly):
// availability 1 with nonzero SDC is precisely the silent-corruption
// hazard. A plan or stream the engine rejects is an error, never a
// silent availability of 0.
func (c Config) faultAvailability(pt FaultPoint, words int64, serviceNs float64) (float64, error) {
	perWord := 0.0
	if pt.Protected && words > 0 {
		perWord = float64(pt.Detected) / float64(words)
	}
	perLaunch := 1 - math.Pow(1-perWord, float64(words))
	if perLaunch <= 0 {
		return 1, nil
	}
	n := c.faultRequests()
	qps := 0.5e9 / serviceNs
	reqs := serve.PoissonArrivals(n, qps, nil, ServingSeed)
	tb := &serve.TableBackend{Label: "newton", Times: map[int][]float64{0: {serviceNs}}}
	plan := cluster.RetryPlan{Seed: c.Seed + FaultSeed, DetectedPerLaunch: perLaunch, MaxRetries: 3}
	f, err := oneDevice(tb, plan, cluster.Options{})
	if err != nil {
		return 0, fmt.Errorf("availability: %w", err)
	}
	res, err := f.Replay(reqs)
	if err != nil {
		return 0, fmt.Errorf("availability: %w", err)
	}
	return float64(res.Total.Served) / float64(res.Total.Arrived), nil
}

// FaultTable is the reliability campaign. The CSV adds the words
// touched, refetches and corrupted bits.
func FaultTable(points []FaultPoint, sum FaultSummary) Table {
	perWord := "unbounded flips"
	if sum.MaxPerWord > 0 {
		perWord = fmt.Sprintf("%d flip(s)", sum.MaxPerWord)
	}
	t := Table{
		Title: []string{
			fmt.Sprintf("Fault campaign (%s, %d layers, %d codewords, max %s per word)", sum.Model, sum.Layers, sum.Words, perWord),
			fmt.Sprintf("availability: %d Poisson arrivals at half service rate (service %.0f ns), detect-and-retry x3",
				sum.Requests, sum.ServiceNs),
		},
		Cols: []Cell{{"ber", "ber"}, {"mode", "mode"}, {"flips", "injected_bits"}, {"", "words_touched"},
			{"corrected", "corrected"}, {"detected", "detected"}, {"", "refetched"}, {"sdc words", "sdc_words"},
			{"", "sdc_bits"}, {"rel-L2", "rel_l2"}, {"max-ulp", "max_ulp"}, {"avail", "availability"}},
		Results: struct {
			Points  []FaultPoint
			Summary FaultSummary
		}{points, sum},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []Cell{cellf("%.0e", p.BER), cellStr(p.Mode()), cellInt(p.Injected),
			cellInt(p.WordsTouched), cellInt(p.Corrected), cellInt(p.Detected), cellInt(p.Refetched),
			cellInt(p.SDCWords), cellInt(p.SDCBits), cellf("%.3g", p.RelL2),
			{fmt.Sprintf("%.3g", float64(p.MaxULP)), strconv.FormatUint(p.MaxULP, 10)}, cellf("%.4f", p.Availability)})
	}
	return t
}
