package main

import (
	"fmt"
	"io"

	"newton"
	"newton/internal/mem"
)

// options is the fully parsed mem surface, separable from flag handling
// so a session is drivable from tests.
type options struct {
	geometry
	policy    string
	intensity float64
	readFrac  float64
	locality  string
	streak    int
	stride    int
	footRows  int
	seed      int64
	epoch     int64
	share     float64
	workload  string
	rows      int
	cols      int
	runs      int
	drain     bool
}

// buildConfig lowers the parsed options to a façade Config.
func buildConfig(o options) (newton.Config, error) {
	pol, err := mem.ParsePolicy(o.policy)
	if err != nil {
		return newton.Config{}, badFlag("policy", "%v", err)
	}
	loc, err := mem.ParseLocality(o.locality)
	if err != nil {
		return newton.Config{}, badFlag("locality", "%v", err)
	}
	cfg := o.config()
	cfg.Coexist = &newton.CoexistConfig{
		Traffic: newton.TrafficConfig{
			IntensityReqPerUs: o.intensity,
			ReadFraction:      o.readFrac,
			Locality:          loc,
			HitStreak:         o.streak,
			Stride:            o.stride,
			Rows:              o.footRows,
			Seed:              o.seed,
		},
		Policy:      pol,
		EpochCycles: o.epoch,
		HostShare:   o.share,
	}
	return cfg, nil
}

// session runs the coexistence workload and writes the report to w.
func session(o options, w io.Writer) error {
	r, c, err := resolveShape(o.workload, o.rows, o.cols)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(o)
	if err != nil {
		return err
	}
	sys, err := newton.NewSystem(cfg)
	if err != nil {
		return err
	}
	pm, err := sys.Load(newton.RandomMatrix(r, c, o.seed))
	if err != nil {
		return err
	}
	in := make([]float32, c)
	for i := range in {
		in[i] = float32(i%17)/17 - 0.5
	}

	fmt.Fprintf(w, "coexistence: %dx%d matrix on %d ch x %d banks, %s, %g req/us %s traffic\n\n",
		r, c, o.channels, o.banks, o.policy, o.intensity, o.locality)
	var busy int64
	for i := 0; i < o.runs; i++ {
		_, st, err := sys.MatVec(pm, in)
		if err != nil {
			return err
		}
		busy += st.Cycles
		fmt.Fprintf(w, "run %2d: %8d cycles (%v)\n", i, st.Cycles, st.Duration())
		if o.drain {
			if err := sys.DrainTraffic(); err != nil {
				return err
			}
		}
	}

	ts := sys.TrafficStats()
	fmt.Fprintf(w, "\nconventional traffic:\n")
	fmt.Fprintf(w, "  served     %d requests (%d reads, %d writes), %d bytes\n",
		ts.Requests, ts.Reads, ts.Writes, ts.Bytes)
	fmt.Fprintf(w, "  in-run     %d bytes", ts.InRunBytes)
	if busy > 0 {
		fmt.Fprintf(w, " (%.3f GB/s while PIM was busy)", float64(ts.InRunBytes)/float64(busy))
	}
	fmt.Fprintf(w, "\n  drained    %d bytes between runs\n", ts.BetweenBytes)
	fmt.Fprintf(w, "  latency    p50 %d  p95 %d  p99 %d  max %d cycles (mean %.1f)\n",
		ts.P50, ts.P95, ts.P99, ts.Max, ts.Mean)
	fmt.Fprintf(w, "  pim stall  %d cycles charged to in-run service\n", ts.StallCycles)
	if sys.TrafficPending() {
		fmt.Fprintf(w, "  backlog    requests still queued at cycle %d\n", sys.Now())
	}
	return nil
}

// runMem runs a host-traffic coexistence session: a Newton system
// executing matrix-vector products while a seeded conventional workload
// shares the same DRAM channels under a selectable QoS policy,
// reporting both sides of the trade: host bandwidth and latency
// percentiles versus PIM run times and stall cycles.
func runMem(args []string, stdout io.Writer) error {
	fs := newFlagSet("mem", "[-policy pim-priority|mem-priority|fair-slice] [-intensity REQ_PER_US] [-locality hit-streak|stride|uniform] [-workload NAME | -rows R -cols C] [flags]")
	var o options
	fs.StringVar(&o.policy, "policy", "pim-priority", "QoS policy: pim-priority, mem-priority or fair-slice")
	fs.Float64Var(&o.intensity, "intensity", 8, "offered load per channel, requests/us")
	fs.Float64Var(&o.readFrac, "readfrac", 0.7, "fraction of requests that are reads, in [0, 1]")
	fs.StringVar(&o.locality, "locality", "hit-streak", "address stream locality: hit-streak, stride or uniform")
	fs.IntVar(&o.streak, "streak", 0, "hit-streak burst length (0 = default 8)")
	fs.IntVar(&o.stride, "stride", 0, "stride column step (0 = default 1)")
	fs.IntVar(&o.footRows, "footprint", 0, "conventional footprint in rows per bank (0 = default 32)")
	fs.Int64Var(&o.seed, "seed", 1, "traffic stream seed")
	fs.Int64Var(&o.epoch, "epoch", 0, "fair-slice epoch in cycles (0 = default 8192)")
	fs.Float64Var(&o.share, "share", 0, "fair-slice host share in (0, 1] (0 = default 0.5)")
	fs.StringVar(&o.workload, "workload", "DLRM-s1", "Table II layer name for the PIM side")
	fs.IntVar(&o.rows, "rows", 0, "matrix rows (overrides -workload with -cols)")
	fs.IntVar(&o.cols, "cols", 0, "matrix cols")
	o.geometry.register(fs, 24)
	fs.IntVar(&o.runs, "runs", 8, "matrix-vector products to run")
	fs.BoolVar(&o.drain, "drain", true, "serve the accumulated backlog between runs")
	if err := parse(fs, args, o.geometry.check); err != nil {
		return err
	}
	return session(o, stdout)
}
