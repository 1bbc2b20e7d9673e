package host

import (
	"testing"

	"newton/internal/dram"
	"newton/internal/layout"
	"newton/internal/mem"
)

// heavyTraffic is an aggressive mixed workload: one request every ~31
// cycles per channel, enough to back up across a multi-thousand-cycle
// MVM run.
func heavyTraffic() mem.TrafficConfig {
	return mem.TrafficConfig{IntensityReqPerUs: 32, ReadFraction: 0.7,
		Locality: mem.LocalityHit, Seed: 5}
}

// newTraffic builds a workload matched to cfg's geometry.
func newTraffic(t *testing.T, cfg dram.Config, tcfg mem.TrafficConfig) *mem.Traffic {
	t.Helper()
	g := cfg.Geometry
	tr, err := mem.New(tcfg, g.Channels, g.Banks, g.Cols, g.ColBytes())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// coexistSession runs a fixed mixed-traffic session — `runs` MVMs with
// a between-run drain after each — and returns the controller and its
// per-run results.
func coexistSession(t *testing.T, opts Options, tcfg mem.TrafficConfig, runs int) (*Controller, []*Result) {
	t.Helper()
	cfg := testCfg()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTraffic(newTraffic(t, cfg, tcfg)); err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(48, 768, 21)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, runs)
	for i := range results {
		v := randomVector(m.Cols, int64(100+i))
		res, err := c.RunMVM(p, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ServiceArrivedTraffic(); err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return c, results
}

func TestAttachTrafficValidation(t *testing.T) {
	cfg := testCfg()
	c, err := NewController(cfg, Newton())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTraffic(nil); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := mem.New(heavyTraffic(), 1, cfg.Geometry.Banks, cfg.Geometry.Cols, cfg.Geometry.ColBytes()); err != nil {
		t.Fatal(err)
	} else if one := newTraffic(t, dram.Config{Geometry: dram.HBM2EGeometry(1), Timing: cfg.Timing}, heavyTraffic()); true {
		if err := c.AttachTraffic(one); err == nil {
			t.Error("channel-count mismatch accepted")
		}
	}
	if narrow, err := mem.New(heavyTraffic(), cfg.Geometry.Channels, cfg.Geometry.Banks, cfg.Geometry.Cols, 16); err != nil {
		t.Fatal(err)
	} else if err := c.AttachTraffic(narrow); err == nil {
		t.Error("column-width mismatch accepted")
	}
	if err := c.ServiceArrivedTraffic(); err == nil {
		t.Error("service with no workload attached accepted")
	}
	if c.TrafficPending() || c.Traffic() != nil || (c.TrafficReport() != TrafficReport{}) {
		t.Error("controller with no workload reports traffic state")
	}
	if err := c.AttachTraffic(newTraffic(t, cfg, heavyTraffic())); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTraffic(newTraffic(t, cfg, heavyTraffic())); err == nil {
		t.Error("double attach accepted")
	}
	bad, err := NewController(cfg, func() Options {
		o := Newton()
		o.QoS.HostShare = 2
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.AttachTraffic(newTraffic(t, cfg, heavyTraffic())); err == nil {
		t.Error("invalid QoS accepted at attach")
	}
}

// TestCoexistEventOracleIdentity drives the identical mixed-traffic
// session through the event core and the verified reference mode
// under every QoS policy: outputs, cycles, stats, clocks and every
// conventional request's service record must match byte for byte, and
// the oracle side must be conformance-clean (including the coexist
// rules, which NewController enables).
func TestCoexistEventOracleIdentity(t *testing.T) {
	for _, pol := range mem.Policies() {
		ev := Newton()
		ev.Parallel = ParallelOff
		ev.QoS = mem.QoS{Policy: pol, EpochCycles: 2048, HostShare: 0.25}
		or := ev
		or.Oracle = true
		or.Verify = true

		ec, eres := coexistSession(t, ev, heavyTraffic(), 3)
		oc, ores := coexistSession(t, or, heavyTraffic(), 3)

		for i := range eres {
			e, o := eres[i], ores[i]
			assertExact(t, e.Output, o.Output, pol.String())
			if e.Cycles != o.Cycles || e.StartCycle != o.StartCycle || e.EndCycle != o.EndCycle {
				t.Fatalf("%v run %d: cycles (%d,%d,%d) vs oracle (%d,%d,%d)", pol, i,
					e.Cycles, e.StartCycle, e.EndCycle, o.Cycles, o.StartCycle, o.EndCycle)
			}
			for ch := range e.PerChannelCycles {
				if e.PerChannelCycles[ch] != o.PerChannelCycles[ch] {
					t.Fatalf("%v run %d: channel %d busy %d vs %d", pol, i, ch,
						e.PerChannelCycles[ch], o.PerChannelCycles[ch])
				}
			}
			if e.Stats != o.Stats {
				t.Fatalf("%v run %d: stats differ:\nevent:  %+v\noracle: %+v", pol, i, e.Stats, o.Stats)
			}
		}
		if ec.Now() != oc.Now() {
			t.Fatalf("%v: final clock %d vs %d", pol, ec.Now(), oc.Now())
		}
		if ec.Stats() != oc.Stats() {
			t.Fatalf("%v: cumulative stats differ", pol)
		}
		if er, orr := ec.TrafficReport(), oc.TrafficReport(); er != orr {
			t.Fatalf("%v: traffic reports differ:\nevent:  %+v\noracle: %+v", pol, er, orr)
		}
		for ch := 0; ch < ec.cfg.Geometry.Channels; ch++ {
			erecs := ec.Traffic().Channel(ch).Records()
			orecs := oc.Traffic().Channel(ch).Records()
			if len(erecs) != len(orecs) {
				t.Fatalf("%v channel %d: %d records vs %d", pol, ch, len(erecs), len(orecs))
			}
			for j := range erecs {
				if erecs[j] != orecs[j] {
					t.Fatalf("%v channel %d record %d: %+v vs %+v", pol, ch, j, erecs[j], orecs[j])
				}
			}
		}
		if v := oc.Conformance().Violations(); len(v) != 0 {
			t.Fatalf("%v: conformance violations under mixed traffic: %v", pol, v[0])
		}
		if oc.Conformance().Commands() == 0 {
			t.Fatalf("%v: conformance suite saw no commands", pol)
		}
	}
}

// TestCoexistSerialParallelIdentity pins that per-channel traffic
// state is goroutine-owned: a parallel mixed-traffic run is
// byte-identical to the serial reference.
func TestCoexistSerialParallelIdentity(t *testing.T) {
	serial := Newton()
	serial.Parallel = ParallelOff
	serial.QoS.Policy = mem.MemPriority
	par := serial
	par.Parallel = 0

	sc, sres := coexistSession(t, serial, heavyTraffic(), 2)
	pc, pres := coexistSession(t, par, heavyTraffic(), 2)
	for i := range sres {
		assertExact(t, sres[i].Output, pres[i].Output, "parallel")
		if sres[i].Cycles != pres[i].Cycles {
			t.Fatalf("run %d: serial %d cycles, parallel %d", i, sres[i].Cycles, pres[i].Cycles)
		}
	}
	if sc.TrafficReport() != pc.TrafficReport() {
		t.Fatal("serial and parallel traffic reports differ")
	}
}

// TestCoexistReplayGating pins that a warm rerun never reuses an
// earlier run's timing once conventional traffic is attached: the
// rerun's cycles must reflect the interleaved traffic, while its
// product stays exact and in-run service actually happens, and only
// inside the run.
func TestCoexistReplayGating(t *testing.T) {
	cfg := testCfg()
	opts := Newton()
	opts.Parallel = ParallelOff
	opts.QoS.Policy = mem.MemPriority
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(48, 768, 21)
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(m.Cols, 9)
	var warm *Result
	for i := 0; i < 4; i++ {
		if warm, err = c.RunMVM(p, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AttachTraffic(newTraffic(t, cfg, heavyTraffic())); err != nil {
		t.Fatal(err)
	}
	var mixed *Result
	for i := 0; i < 3; i++ {
		if mixed, err = c.RunMVM(p, v); err != nil {
			t.Fatal(err)
		}
		if err := c.ServiceArrivedTraffic(); err != nil {
			t.Fatal(err)
		}
	}
	// The rerun's timing reflects the interleaved traffic; the product
	// itself is unaffected.
	if mixed.Cycles <= warm.Cycles {
		t.Fatalf("mixed-traffic rerun took %d cycles, traffic-free warm run %d: traffic not interleaved",
			mixed.Cycles, warm.Cycles)
	}
	assertExact(t, mixed.Output, warm.Output, "mixed rerun")
	rep := c.TrafficReport()
	if rep.InRunBytes == 0 {
		t.Fatal("mem-priority rerun serviced no in-run traffic")
	}
	// Only a run serves traffic at its refresh boundaries: a scrub after
	// it, with requests arrived, serves none in-run.
	c.Advance(cfg.Timing.TREFI)
	if !c.TrafficPending() {
		t.Fatal("no traffic arrived before the scrub")
	}
	if err := c.Scrub(p); err != nil {
		t.Fatal(err)
	}
	if got := c.TrafficReport().InRunBytes; got != rep.InRunBytes {
		t.Errorf("a scrub after the runs served %d in-run bytes", got-rep.InRunBytes)
	}
}

// TestQoSPolicyBehavior pins each policy's contract under a heavy
// backlog: PIM-priority admits nothing inside a run (zero stall),
// mem-priority admits everything that arrives, and FairSlice sits
// between, capped by its epoch share.
func TestQoSPolicyBehavior(t *testing.T) {
	run := func(pol mem.Policy, share float64) (TrafficReport, *Result) {
		opts := Newton()
		opts.QoS = mem.QoS{Policy: pol, EpochCycles: 8192, HostShare: share}
		c, res := coexistSession(t, opts, heavyTraffic(), 2)
		return c.TrafficReport(), res[1]
	}
	// The FairSlice share is deliberately tight (about 80 host cycles
	// per 8192-cycle epoch) so the ledger visibly binds at this scale.
	pim, pimRes := run(mem.PIMPriority, 0.01)
	fair, fairRes := run(mem.FairSlice, 0.01)
	memp, memRes := run(mem.MemPriority, 0.01)

	if pim.InRunBytes != 0 || pim.StallCycles != 0 {
		t.Fatalf("pim-priority serviced in-run traffic: %+v", pim)
	}
	if pim.BetweenBytes == 0 {
		t.Fatal("pim-priority drained nothing between runs")
	}
	if memp.InRunBytes == 0 || memp.StallCycles == 0 {
		t.Fatalf("mem-priority serviced no in-run traffic: %+v", memp)
	}
	if fair.InRunBytes == 0 {
		t.Fatalf("fair-slice serviced no in-run traffic: %+v", fair)
	}
	if fair.InRunBytes >= memp.InRunBytes {
		t.Fatalf("fair-slice in-run bytes %d not below mem-priority's %d", fair.InRunBytes, memp.InRunBytes)
	}
	if fair.StallCycles >= memp.StallCycles {
		t.Fatalf("fair-slice stall %d not below mem-priority's %d", fair.StallCycles, memp.StallCycles)
	}
	if !(pimRes.Cycles <= fairRes.Cycles && fairRes.Cycles <= memRes.Cycles) {
		t.Fatalf("run cycles not ordered by admitted service: pim %d, fair %d, mem %d",
			pimRes.Cycles, fairRes.Cycles, memRes.Cycles)
	}
	// Host latency moves the other way: the more a policy admits
	// in-run, the earlier the backlog is serviced.
	if memp.Summary.P99 >= pim.Summary.P99 {
		t.Fatalf("mem-priority host p99 %d not below pim-priority's %d", memp.Summary.P99, pim.Summary.P99)
	}
}

// TestServiceArrivedTrafficDrains pins the between-run drain: after
// it, no arrived request is pending, and the records are well-formed
// (service after arrival, completion after service start).
func TestServiceArrivedTrafficDrains(t *testing.T) {
	c, _ := coexistSession(t, Newton(), heavyTraffic(), 2)
	// One drain pass serves the requests arrived by its entry clock;
	// service advances the clock, so new arrivals can be due right
	// after. The backlog shrinks geometrically (service outpaces
	// arrivals here), so a few passes empty it.
	for i := 0; i < 16 && c.TrafficPending(); i++ {
		if err := c.ServiceArrivedTraffic(); err != nil {
			t.Fatal(err)
		}
	}
	if c.TrafficPending() {
		t.Fatal("requests still pending after repeated drains")
	}
	rep := c.TrafficReport()
	if rep.Summary.Requests == 0 {
		t.Fatal("no requests serviced")
	}
	if rep.Summary.Reads+rep.Summary.Writes != rep.Summary.Requests {
		t.Fatalf("read/write split inconsistent: %+v", rep.Summary)
	}
	if rep.Summary.P50 > rep.Summary.P99 || rep.Summary.P99 > rep.Summary.Max {
		t.Fatalf("latency quantiles out of order: %+v", rep.Summary)
	}
	for ch := 0; ch < c.cfg.Geometry.Channels; ch++ {
		for _, r := range c.Traffic().Channel(ch).Records() {
			if r.Start < r.Arrival || r.Done < r.Start {
				t.Fatalf("channel %d: malformed record %+v", ch, r)
			}
		}
	}
}

// TestConventionalWritesLand pins the functional side of conventional
// service on both cores: a WR followed by a RD of the same cell
// returns the written payload, and the event core's bank contents
// match the oracle's after a mixed session.
func TestConventionalWritesLand(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		opts := Newton()
		opts.Oracle = oracle
		opts.QoS.Policy = mem.MemPriority
		tcfg := heavyTraffic()
		tcfg.ReadFraction = 0 // writes only
		c, _ := coexistSession(t, opts, tcfg, 1)
		base := c.traffic.baseRow
		// Find a serviced write and re-read its cell through the bank.
		req := func() mem.Request {
			st := newTraffic(t, c.cfg, tcfg).Channel(0)
			return st.Pop()
		}()
		b := c.Engine(0).Channel().Bank(req.Bank)
		rowData, err := b.PeekRow(base + req.Row)
		if err != nil {
			t.Fatal(err)
		}
		cb := c.cfg.Geometry.ColBytes()
		got := rowData[req.Col*cb : (req.Col+1)*cb]
		for i := range got {
			if got[i] != byte(req.Arrival+int64(i)) {
				t.Fatalf("oracle=%v: cell byte %d is %#x, want %#x", oracle, i, got[i], byte(req.Arrival+int64(i)))
			}
		}
	}
}

// TestCoexistOutputsUnperturbed pins the §III-A partition end to end:
// a heavy write workload must not change the MVM product by a single
// bit (conventional rows live at the top of the row space, AiM rows at
// the bottom).
func TestCoexistOutputsUnperturbed(t *testing.T) {
	m := layout.RandomMatrix(48, 768, 21)
	v := randomVector(m.Cols, 9)
	clean, _ := runMVM(t, testCfg(), Newton(), m, v)

	opts := Newton()
	opts.QoS.Policy = mem.MemPriority
	tcfg := heavyTraffic()
	tcfg.ReadFraction = 0
	cfg := testCfg()
	c, err := NewController(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTraffic(newTraffic(t, cfg, tcfg)); err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	for i := 0; i < 2; i++ {
		if res, err = c.RunMVM(p, v); err != nil {
			t.Fatal(err)
		}
		if err := c.ServiceArrivedTraffic(); err != nil {
			t.Fatal(err)
		}
	}
	assertExact(t, res.Output, clean.Output, "coexist")
}
