package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"newton"
	"newton/internal/obs"
)

// runCluster replays synthetic or recorded request streams against a
// simulated multi-device serving fleet: N independent Newton devices (or
// batching GPUs, or the Ideal baseline) behind a virtual-time router
// with replica placement, row-split fan-out, consistent-hash or
// least-loaded routing, device failover and SLO-driven autoscaling.
// Virtual time is deterministic: a (fleet, load, seed) triple always
// prints the same numbers, byte for byte.
//
// The default mode (-backend both) sweeps offered loads with both a
// Newton fleet and a GPU fleet and reports the fleet-scale crossover:
// the load below which the Newton fleet's p99 wins and past which the
// GPU fleet's amortized batches win; it is newton serve's single-device
// study pushed to tens of millions of queries per second.
//
// -kill and -outages kill devices mid-stream. A killed device drains
// its admitted queue to its failover siblings: the per-device breakdown
// shows the drained-in/out accounting, and the fleet totals prove no
// accepted request was dropped (shed 0). -slo and -max-queue turn on
// the autoscaler, which activates -standby spares.
func runCluster(args []string, stdout io.Writer) error {
	fs := newFlagSet("cluster", "[flags]")
	var fl fleetFlags
	fl.register(fs, "1e6,5e6,1e7,1.5e7", 50000, 11)
	replicas := fs.String("replicas", "4", "active replicas per model: one value for all, or a comma-separated list")
	split := fs.String("split", "0", "row-split ways per model (0 = replicate): one value or a list")
	standby := fs.String("standby", "0", "cold spare replicas per model: one value or a list")
	policyFlag := fs.String("policy", "least", "replica routing policy: least or hash")
	reduce := fs.Float64("reduce", 0, "router-side reduction cost per row-split request (virtual ns)")
	killFlag := fs.String("kill", "", "device kills, comma-separated \"<device>@<ns>\" entries")
	outages := fs.Int("outages", 0, "draw a seeded campaign killing this many devices within the stream horizon")
	slo := fs.Float64("slo", 0, "autoscale: target fleet p99 in virtual ns (0 = off)")
	maxQueue := fs.Int64("max-queue", 0, "autoscale: activate a standby past this fleet-wide queue depth")
	warmup := fs.Float64("warmup", 0, "autoscale: standby warm-up delay in virtual ns")
	verify := fs.Bool("verify", false, "calibrate every device table under the independent conformance checker")
	jsonOut := fs.Bool("json", false, "print machine-readable per-stream results to stdout")
	err := parse(fs, args, fl.check, func() error {
		return errors.Join(finiteTime("reduce", *reduce), atLeast0("outages", int64(*outages)),
			finiteTime("slo", *slo), atLeast0("max-queue", *maxQueue), finiteTime("warmup", *warmup))
	})
	if err != nil {
		return err
	}

	models, err := parseModels(fl.models, *replicas, *split, *standby)
	if err != nil {
		return err
	}
	opt := newton.ClusterOptions{MaxBatch: fl.maxBatch, MaxWait: fl.maxWait, QueueDepth: fl.queue, ReduceNs: *reduce}
	switch *policyFlag {
	case "least":
		opt.Policy = newton.RouteLeastLoaded
	case "hash":
		opt.Policy = newton.RouteHash
	default:
		return badFlag("policy", "%q is not least or hash", *policyFlag)
	}
	if opt.Shed, err = fl.shedPolicy(); err != nil {
		return err
	}
	if *slo > 0 || *maxQueue > 0 {
		opt.Autoscale = &newton.ClusterAutoscale{SLOP99Ns: *slo, MaxQueue: *maxQueue, WarmupNs: *warmup}
	}
	kinds, err := fl.kinds()
	if err != nil {
		return err
	}
	kills, err := parseKills(*killFlag, fleetDevices(models))
	if err != nil {
		return err
	}
	streams, horizon, err := arrivalStreams(fl.trace, fl.loads, fl.n, fl.seed, len(models))
	if err != nil {
		return err
	}
	reg, tr, block, err := serveObs(fl.listen)
	if err != nil {
		return err
	}

	cfg := fl.config()
	cfg.Verify = *verify
	fleets := make([]*newton.Cluster, len(kinds))
	for i, kind := range kinds {
		cc := newton.ClusterConfig{Models: models, Backend: kind, Options: opt, Seed: fl.modelSeed, Outages: kills}
		if kind == newton.ServeGPU {
			cc.Options.MaxBatch = fl.gpuMaxBatch
		}
		cl, err := cfg.NewCluster(cc)
		if err != nil {
			return fmt.Errorf("building %v fleet: %w", kind, err)
		}
		if *outages > 0 {
			camp, err := newton.OutageSchedule(fl.seed, len(cl.Devices()), *outages, horizon)
			if err != nil {
				return fmt.Errorf("outage campaign: %w", err)
			}
			cc.Outages = append(append([]newton.DeviceOutage(nil), kills...), camp...)
			if cl, err = cfg.NewCluster(cc); err != nil {
				return fmt.Errorf("rebuilding %v fleet with campaign: %w", kind, err)
			}
		}
		cl.Observe(reg, tr)
		fleets[i] = cl
	}
	if len(fleets) == 2 {
		err = compare(stdout, fleets[0], fleets[1], streams, *jsonOut)
	} else {
		err = single(stdout, fleets[0], streams, *jsonOut)
	}
	if err != nil {
		return err
	}
	if *verify {
		verifySummary()
	}
	return block()
}

// parseKills parses -kill "0@20000,2@50000" into explicit outages of
// a fleet of the given size.
func parseKills(spec string, devices int) ([]newton.DeviceOutage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []newton.DeviceOutage
	for _, part := range strings.Split(spec, ",") {
		d, t, ok := strings.Cut(part, "@")
		dev, err1 := strconv.Atoi(strings.TrimSpace(d))
		at, err2 := strconv.ParseFloat(strings.TrimSpace(t), 64)
		if !ok || err1 != nil || err2 != nil || !(at > 0) {
			return nil, badFlag("kill", "bad entry %q (want <device>@<ns>)", part)
		}
		if dev < 0 || dev >= devices {
			return nil, badFlag("kill", "device %d is outside the %d-device fleet", dev, devices)
		}
		out = append(out, newton.DeviceOutage{Device: dev, At: at})
	}
	return out, nil
}

// jsonResult is the machine-readable per-stream record.
type jsonResult struct {
	Stream  string                    `json:"stream"`
	Backend string                    `json:"backend"`
	Devices int                       `json:"devices"`
	Arrived int64                     `json:"arrived"`
	Served  int64                     `json:"served"`
	Shed    int64                     `json:"shed"`
	P50     float64                   `json:"p50_ns"`
	P95     float64                   `json:"p95_ns"`
	P99     float64                   `json:"p99_ns"`
	QPS     float64                   `json:"served_qps"`
	Router  newton.ClusterRouterStats `json:"router"`
	Fleet   []jsonDevice              `json:"fleet"`
}

type jsonDevice struct {
	Name       string `json:"name"`
	Health     string `json:"health"`
	Served     int64  `json:"served"`
	Shed       int64  `json:"shed"`
	DrainedIn  int64  `json:"drained_in,omitempty"`
	DrainedOut int64  `json:"drained_out,omitempty"`
}

func record(label, backend string, res *newton.ClusterResult) jsonResult {
	out := jsonResult{
		Stream:  label,
		Backend: backend,
		Devices: len(res.Devices),
		Arrived: res.Total.Arrived,
		Served:  res.Total.Served,
		Shed:    res.Total.Shed,
		P50:     res.Total.Latency.P50(),
		P95:     res.Total.Latency.P95(),
		P99:     res.Total.Latency.P99(),
		QPS:     res.Total.Throughput(),
		Router:  res.Router,
	}
	for _, d := range res.Devices {
		out.Fleet = append(out.Fleet, jsonDevice{
			Name: d.Name, Health: d.Health.String(),
			Served: d.Metrics.Served, Shed: d.Metrics.Shed,
			DrainedIn: d.Metrics.DrainedIn, DrainedOut: d.Metrics.DrainedOut,
		})
	}
	return out
}

// printJSON writes records one JSON object per line.
func printJSON(w io.Writer, records ...jsonResult) error {
	for _, r := range records {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(data))
	}
	return nil
}

// compare is the default mode: a Newton fleet vs a GPU fleet per
// stream, with the fleet-scale p99 crossover load.
func compare(w io.Writer, newtonCl, gpuCl *newton.Cluster, streams []stream, jsonOut bool) error {
	if !jsonOut {
		fmt.Fprintln(w, "stream            newton p50/p95/p99               gpu p50/p95/p99                  newton qps  gpu qps   winner")
	}
	crossover := ""
	for _, s := range streams {
		nres, err := newtonCl.Replay(s.reqs)
		if err != nil {
			return err
		}
		gres, err := gpuCl.Replay(s.reqs)
		if err != nil {
			return err
		}
		winner := "Newton"
		if gres.Total.Latency.P99() < nres.Total.Latency.P99() {
			winner = "GPU"
			if crossover == "" {
				crossover = s.label
			}
		}
		if jsonOut {
			if err := printJSON(w, record(s.label, "newton", nres), record(s.label, "gpu", gres)); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "%-16s  %9s /%9s /%-9s  %9s /%9s /%-9s  %7.2fM    %6.2fM   %s\n",
			s.label,
			obs.FormatNs(nres.Total.Latency.P50()), obs.FormatNs(nres.Total.Latency.P95()), obs.FormatNs(nres.Total.Latency.P99()),
			obs.FormatNs(gres.Total.Latency.P50()), obs.FormatNs(gres.Total.Latency.P95()), obs.FormatNs(gres.Total.Latency.P99()),
			nres.Total.Throughput()/1e6, gres.Total.Throughput()/1e6, winner)
	}
	switch {
	case jsonOut:
	case crossover != "":
		fmt.Fprintf(w, "\ncrossover: the GPU fleet's p99 overtakes the Newton fleet's at %s\n", crossover)
	default:
		fmt.Fprintln(w, "\ncrossover: none in the studied range; the Newton fleet's p99 wins everywhere")
	}
	return nil
}

// single runs one fleet over every stream with the per-device
// breakdown, router decisions, and drain accounting.
func single(w io.Writer, cl *newton.Cluster, streams []stream, jsonOut bool) error {
	backendName := "fleet"
	if devs := cl.Devices(); len(devs) > 0 {
		backendName = devs[0].Backend.Name()
	}
	for _, s := range streams {
		res, err := cl.Replay(s.reqs)
		if err != nil {
			return err
		}
		if jsonOut {
			if err := printJSON(w, record(s.label, backendName, res)); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "%s: %s\n", s.label, res.Total.Summary())
		for _, d := range res.Devices {
			fmt.Fprintf(w, "  %-12s %s", d.Name, d.Metrics.Summary())
			if d.Health != newton.DeviceHealthy {
				fmt.Fprintf(w, "  [%s]", d.Health)
			}
			fmt.Fprintln(w)
		}
		r := res.Router
		fmt.Fprintf(w, "  router: %d requests", r.Requests)
		if r.Fanout > 0 {
			fmt.Fprintf(w, ", %d slice fan-outs", r.Fanout)
		}
		if r.Rerouted > 0 {
			fmt.Fprintf(w, ", %d rerouted off the ring", r.Rerouted)
		}
		if r.Drained > 0 || r.DrainShed > 0 {
			fmt.Fprintf(w, ", drained %d to siblings (%d lost)", r.Drained, r.DrainShed)
		}
		if r.ScaleUps > 0 || r.ScaleDowns > 0 {
			fmt.Fprintf(w, ", %d scale-ups / %d scale-downs", r.ScaleUps, r.ScaleDowns)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// parseModels resolves the -models/-replicas/-split/-standby flags.
func parseModels(spec, replicas, split, standby string) ([]newton.ClusterModel, error) {
	names := strings.Split(spec, ",")
	repl, err := perModelInts("replicas", replicas, len(names), 0)
	if err != nil {
		return nil, err
	}
	ways, err := perModelInts("split", split, len(names), 0)
	if err != nil {
		return nil, err
	}
	spares, err := perModelInts("standby", standby, len(names), 0)
	if err != nil {
		return nil, err
	}
	models := make([]newton.ClusterModel, len(names))
	for i, raw := range names {
		m := &models[i]
		*m = newton.ClusterModel{Name: strings.TrimSpace(raw), Replicas: repl[i], SplitAcross: ways[i], Standby: spares[i]}
		if m.SplitAcross == 1 {
			return nil, badFlag("split", "model %q splits 1 way; want 0 (replicate) or 2 or more", m.Name)
		}
		if m.SplitAcross >= 2 {
			// -replicas applies a fleet-wide default; a split model is
			// not replicated.
			m.Replicas = 0
		}
		if m.Rows, m.Cols, err = lookupShape(m.Name); err != nil {
			return nil, err
		}
	}
	return models, nil
}

// fleetDevices counts the devices NewCluster builds for models: each
// split model's slices, or its active replicas (at least one) and
// standbys.
func fleetDevices(models []newton.ClusterModel) int {
	n := 0
	for _, m := range models {
		if m.SplitAcross >= 2 {
			n += m.SplitAcross
		} else {
			n += max(m.Replicas, 1) + m.Standby
		}
	}
	return n
}
