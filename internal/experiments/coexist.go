package experiments

import (
	"fmt"

	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/mem"
	"newton/internal/par"
)

// This file is the coexistence interference study: how much
// conventional host traffic the shared channels can absorb under each
// QoS policy, and what it costs the PIM side. The paper's machine is a
// main-memory accelerator — the DRAM keeps serving the host while it
// computes (§II, §III-A) — so the trade-off between host bandwidth and
// PIM tail latency is the operating question a deployment faces.

// CoexistIntensities is the default offered-load sweep, in requests
// per microsecond per channel. The top point (one request every ~31
// cycles) saturates in-run service under mem-priority.
var CoexistIntensities = []float64{0.5, 2, 8, 32}

// CoexistMVMsDefault is how many MVM runs each design point samples
// for its PIM latency distribution.
const CoexistMVMsDefault = 16

// coexistQoS is the sweep's QoS shape for a policy. The FairSlice
// share is set low enough (10% of an 8192-cycle epoch) that the ledger
// visibly binds at the top intensities, separating it from both
// neighbors; the policy-neutral fields are identical across points.
func coexistQoS(p mem.Policy) mem.QoS {
	return mem.QoS{Policy: p, EpochCycles: 8192, HostShare: 0.10}
}

// CoexistPoint is one (policy, offered load) cell of the interference
// sweep.
type CoexistPoint struct {
	Policy    string
	Intensity float64 // offered load, requests/us per channel

	// HostGBs is the conventional bandwidth serviced while PIM runs
	// were in flight, in GB/s (1 byte/cycle = 1 GB/s at the 1 ns
	// clock), aggregated over channels.
	HostGBs float64
	// HostP50/P95/P99 are conventional request latencies in cycles,
	// arrival to completion, over all serviced requests.
	HostP50, HostP95, HostP99 int64
	// PIMP50/PIMP99 are the MVM duration percentiles in cycles.
	PIMP50, PIMP99 int64
	// StallCycles is the total clock advance charged to in-run
	// conventional service, summed over channels.
	StallCycles int64
	// Served is the total conventional requests completed.
	Served int64
}

// coexistMVMs resolves the per-point sample count.
func (c Config) coexistMVMs() int {
	if c.ServingN > 0 && c.ServingN < CoexistMVMsDefault {
		// The reduced-test knob also shortens this study.
		return c.ServingN
	}
	return CoexistMVMsDefault
}

// coexistPoint runs one policy at one offered load.
func (c Config) coexistPoint(pol mem.Policy, intensity float64) (CoexistPoint, error) {
	opts := c.paperNewton()
	opts.Verify = c.Verify
	opts.Oracle = c.Oracle
	opts.Parallel = c.hostParallel()
	opts.QoS = coexistQoS(pol)
	cfg := c.dramConfig(c.Banks, true)
	ctrl, err := host.NewController(cfg, opts)
	if err != nil {
		return CoexistPoint{}, err
	}
	g := cfg.Geometry
	tr, err := mem.New(mem.TrafficConfig{
		IntensityReqPerUs: intensity,
		ReadFraction:      0.7,
		Locality:          mem.LocalityHit,
		Seed:              c.Seed,
	}, g.Channels, g.Banks, g.Cols, g.ColBytes())
	if err != nil {
		return CoexistPoint{}, err
	}
	if err := ctrl.AttachTraffic(tr); err != nil {
		return CoexistPoint{}, err
	}
	b := c.benchmarks()[0]
	m := layout.RandomMatrix(b.Rows, b.Cols, c.Seed)
	p, err := ctrl.Place(m)
	if err != nil {
		return CoexistPoint{}, err
	}
	v := c.inputFor(b.Cols)
	n := c.coexistMVMs()
	pimCycles := make([]int64, 0, n)
	var busy int64
	for i := 0; i < n; i++ {
		res, err := ctrl.RunMVM(p, v)
		if err != nil {
			return CoexistPoint{}, err
		}
		pimCycles = append(pimCycles, res.Cycles)
		busy += res.Cycles
		if err := ctrl.ServiceArrivedTraffic(); err != nil {
			return CoexistPoint{}, err
		}
	}
	rep := ctrl.TrafficReport()
	pt := CoexistPoint{
		Policy:      pol.String(),
		Intensity:   intensity,
		HostP50:     rep.Summary.P50,
		HostP95:     rep.Summary.P95,
		HostP99:     rep.Summary.P99,
		PIMP50:      mem.Percentile(pimCycles, 50),
		PIMP99:      mem.Percentile(pimCycles, 99),
		StallCycles: rep.StallCycles,
		Served:      rep.Summary.Requests,
	}
	if busy > 0 {
		pt.HostGBs = float64(rep.InRunBytes) / float64(busy)
	}
	if c.Verify {
		if vs := ctrl.Conformance().Violations(); len(vs) > 0 {
			return CoexistPoint{}, fmt.Errorf("coexist %s @%g: conformance violation: %v", pol, intensity, vs[0])
		}
	}
	return pt, nil
}

// Coexistence sweeps every QoS policy across the offered-load range on
// the first benchmark layer. Points share nothing (each builds its own
// controller and workload) and fan out onto the worker pool.
func (c Config) Coexistence() ([]CoexistPoint, error) {
	pols := mem.Policies()
	pts := make([]CoexistPoint, len(pols)*len(CoexistIntensities))
	err := par.ForEachErr(c.sweepWorkers(), len(pts), func(i int) error {
		pol := pols[i/len(CoexistIntensities)]
		intensity := CoexistIntensities[i%len(CoexistIntensities)]
		pt, err := c.coexistPoint(pol, intensity)
		if err != nil {
			return err
		}
		pts[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// CoexistenceTable is the interference sweep. The CSV adds the host
// p95.
func CoexistenceTable(pts []CoexistPoint) Table {
	t := Table{
		Title: []string{"Coexistence: host traffic vs PIM latency on shared channels (QoS sweep)"},
		Cols: []Cell{{"policy", "policy"}, {"req/us", "req_per_us"}, {"host GB/s", "host_gbs"},
			{"host p50", "host_p50"}, {"", "host_p95"}, {"host p99", "host_p99"}, {"PIM p50", "pim_p50"},
			{"PIM p99", "pim_p99"}, {"stall cyc", "stall_cycles"}, {"served", "served"}},
		Results: struct {
			Points      []CoexistPoint
			Intensities []float64
		}{pts, CoexistIntensities},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []Cell{cellStr(p.Policy), cellf("%g", p.Intensity), cellf("%.3f", p.HostGBs),
			cellInt(p.HostP50), cellInt(p.HostP95), cellInt(p.HostP99), cellInt(p.PIMP50), cellInt(p.PIMP99),
			cellInt(p.StallCycles), cellInt(p.Served)})
	}
	return t
}
