// Command newton-cluster replays synthetic or recorded request streams
// against a simulated multi-device serving fleet: N independent Newton
// devices (or batching GPUs, or the Ideal baseline) behind a
// virtual-time router with replica placement, row-split fan-out,
// consistent-hash or least-loaded routing, device failover and
// SLO-driven autoscaling. Virtual time is deterministic: a (fleet,
// load, seed) triple always prints the same numbers, byte for byte.
//
// The default mode sweeps offered loads with both a Newton fleet and a
// GPU fleet and reports the fleet-scale crossover: the load below which
// the Newton fleet's p99 wins and past which the GPU fleet's amortized
// batches win — cmd/newton-serve's single-device study pushed to tens
// of millions of queries per second.
//
// Usage:
//
//	newton-cluster [flags]
//
//	  -models DLRM-s1            comma-separated Table II names or RxC shapes
//	  -replicas 4                active replicas per model (single value or list)
//	  -split 0                   row-split ways per model (0 = replicate)
//	  -standby 0                 cold spares per model (single value or list)
//	  -backend both              newton, gpu, ideal, or both
//	  -loads 1e6,...,1.5e7       offered fleet loads in queries/s
//	  -n 50000                   arrivals per load
//	  -seed 11                   arrival-stream seed
//	  -policy least              replica routing: least or hash
//	  -max-batch 1               Newton/Ideal batch cap per device launch
//	  -gpu-max-batch 1024        GPU batch cap
//	  -max-wait 0                batcher hold deadline (virtual ns)
//	  -queue 0                   per-device queue bound (0 = unbounded)
//	  -shed newest               shed policy when a device queue is full
//	  -reduce 0                  router-side reduction cost per split request (ns)
//	  -kill 0@20000              kill device 0 at t=20000 ns (comma-separated list)
//	  -outages 0                 draw a seeded failure campaign of N devices
//	  -slo 0                     autoscale: target fleet p99 in ns (0 = off)
//	  -max-queue 0               autoscale: fleet queue-depth trigger
//	  -warmup 0                  autoscale: standby warm-up delay (ns)
//	  -trace FILE                replay a trace file instead of Poisson arrivals
//	  -verify                    calibrate under the conformance checker
//	  -json                      print machine-readable results per stream
//	  -listen ADDR               serve /metrics and /snapshot during and after
//
// A killed device drains its admitted queue to its failover siblings:
// the per-device breakdown shows the drained-in/out accounting, and the
// fleet totals prove no accepted request was dropped (shed 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"newton"
	"newton/internal/conformance"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("newton-cluster: ")

	modelsFlag := flag.String("models", "DLRM-s1", "served models: Table II names or RxC shapes, comma-separated")
	replicasFlag := flag.String("replicas", "4", "active replicas per model: one value for all, or a comma-separated list")
	splitFlag := flag.String("split", "0", "row-split ways per model (0 = replicate): one value or a list")
	standbyFlag := flag.String("standby", "0", "cold spare replicas per model: one value or a list")
	backend := flag.String("backend", "both", "fleet to simulate: newton, gpu, ideal, or both")
	loadsFlag := flag.String("loads", "1e6,5e6,1e7,1.5e7", "offered fleet loads (queries/s), comma-separated")
	n := flag.Int("n", 50000, "arrivals per load")
	seed := flag.Int64("seed", 11, "arrival-stream seed")
	modelSeed := flag.Int64("model-seed", 42, "weight/calibration seed")
	policyFlag := flag.String("policy", "least", "replica routing policy: least or hash")
	maxBatch := flag.Int("max-batch", 1, "Newton/Ideal batch cap per device launch")
	gpuMaxBatch := flag.Int("gpu-max-batch", 1024, "GPU batch cap per launch")
	maxWait := flag.Float64("max-wait", 0, "batcher hold deadline in virtual ns")
	queue := flag.Int("queue", 0, "per-device queue bound (0 = unbounded)")
	shedFlag := flag.String("shed", "newest", "shed policy when a device queue is full: newest or oldest")
	reduce := flag.Float64("reduce", 0, "router-side reduction cost per row-split request (virtual ns)")
	killFlag := flag.String("kill", "", "device kills, comma-separated \"<device>@<ns>\" entries")
	outages := flag.Int("outages", 0, "draw a seeded campaign killing this many devices within the stream horizon")
	slo := flag.Float64("slo", 0, "autoscale: target fleet p99 in virtual ns (0 = off)")
	maxQueue := flag.Int64("max-queue", 0, "autoscale: activate a standby past this fleet-wide queue depth")
	warmup := flag.Float64("warmup", 0, "autoscale: standby warm-up delay in virtual ns")
	channels := flag.Int("channels", 24, "memory channels per device")
	banks := flag.Int("banks", 16, "banks per channel")
	traceFile := flag.String("trace", "", "replay this arrival trace instead of Poisson streams")
	verify := flag.Bool("verify", false, "calibrate every device table under the independent conformance checker")
	jsonOut := flag.Bool("json", false, "print machine-readable per-stream results to stdout")
	listen := flag.String("listen", "", "serve /metrics and /snapshot on this address (blocks after the runs)")
	flag.Parse()

	cfg := newton.DefaultConfig()
	cfg.Channels = *channels
	cfg.Banks = *banks
	cfg.Verify = *verify

	var reg *newton.ObsRegistry
	var tr *newton.ObsTracer
	if *listen != "" {
		reg, tr = newton.NewObsRegistry(), &newton.ObsTracer{}
		serveObs(*listen, reg, tr)
	}

	models, err := parseModels(*modelsFlag, *replicasFlag, *splitFlag, *standbyFlag)
	if err != nil {
		log.Fatal(err)
	}

	policy := newton.RouteLeastLoaded
	switch *policyFlag {
	case "least":
	case "hash":
		policy = newton.RouteHash
	default:
		log.Fatalf("unknown -policy %q (want least or hash)", *policyFlag)
	}
	shed := newton.ShedNewest
	switch *shedFlag {
	case "newest":
	case "oldest":
		shed = newton.ShedOldest
	default:
		log.Fatalf("unknown -shed %q (want newest or oldest)", *shedFlag)
	}

	opt := newton.ClusterOptions{
		MaxBatch:   *maxBatch,
		MaxWait:    *maxWait,
		QueueDepth: *queue,
		Policy:     policy,
		Shed:       shed,
		ReduceNs:   *reduce,
	}
	if *slo > 0 || *maxQueue > 0 {
		opt.Autoscale = &newton.ClusterAutoscale{SLOP99Ns: *slo, MaxQueue: *maxQueue, WarmupNs: *warmup}
	}

	streams, horizon, err := arrivalStreams(*traceFile, *loadsFlag, *n, *seed, models)
	if err != nil {
		log.Fatal(err)
	}

	kills, err := parseKills(*killFlag)
	if err != nil {
		log.Fatal(err)
	}

	build := func(kind newton.ServeBackendKind) *newton.Cluster {
		cc := newton.ClusterConfig{
			Models:  models,
			Backend: kind,
			Options: opt,
			Seed:    *modelSeed,
			Outages: kills,
		}
		if kind == newton.ServeGPU {
			cc.Options.MaxBatch = *gpuMaxBatch
		}
		cl, err := cfg.NewCluster(cc)
		if err != nil {
			log.Fatalf("building %v fleet: %v", kind, err)
		}
		if *outages > 0 {
			camp, err := newton.OutageSchedule(*seed, len(cl.Devices()), *outages, horizon)
			if err != nil {
				log.Fatalf("outage campaign: %v", err)
			}
			cc.Outages = append(append([]newton.DeviceOutage(nil), kills...), camp...)
			if cl, err = cfg.NewCluster(cc); err != nil {
				log.Fatalf("rebuilding %v fleet with campaign: %v", kind, err)
			}
		}
		cl.Observe(reg, tr)
		return cl
	}

	switch *backend {
	case "both":
		compare(build(newton.ServeNewton), build(newton.ServeGPU), streams, *jsonOut)
	case "newton", "gpu", "ideal":
		kind := newton.ServeNewton
		if *backend == "gpu" {
			kind = newton.ServeGPU
		} else if *backend == "ideal" {
			kind = newton.ServeIdeal
		}
		single(build(kind), streams, *jsonOut)
	default:
		log.Fatalf("unknown -backend %q", *backend)
	}

	if *verify {
		// Calibration fails fast on the first violation, so reaching this
		// line means every checked command was clean.
		fmt.Fprintf(os.Stderr, "conformance: %d commands checked, 0 violations\n",
			conformance.TotalCommandsChecked())
	}
	blockOnListen(*listen)
}

// stream is one labelled arrival sequence.
type stream struct {
	label string
	reqs  []newton.ServeRequest
}

// arrivalStreams builds the run's request streams plus the longest
// stream horizon in virtual ns (for seeded outage campaigns).
func arrivalStreams(traceFile, loads string, n int, seed int64, models []newton.ClusterModel) ([]stream, float64, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		reqs, err := newton.ParseServeTrace(f)
		if err != nil {
			return nil, 0, err
		}
		horizon := 1.0
		for _, q := range reqs {
			if q.T > horizon {
				horizon = q.T
			}
		}
		return []stream{{label: traceFile, reqs: reqs}}, horizon, nil
	}
	weights := make([]float64, len(models))
	for i, m := range models {
		weights[i] = m.Weight
		if weights[i] <= 0 {
			weights[i] = 1
		}
	}
	var streams []stream
	horizon := 1.0
	for _, part := range strings.Split(loads, ",") {
		qps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || qps <= 0 {
			return nil, 0, fmt.Errorf("bad load %q", part)
		}
		if h := float64(n) / qps * 1e9; h > horizon {
			horizon = h
		}
		streams = append(streams, stream{
			label: fmt.Sprintf("%.0f qps", qps),
			reqs:  newton.PoissonRequests(n, qps, weights, seed),
		})
	}
	return streams, horizon, nil
}

// parseKills parses -kill "0@20000,2@50000" into explicit outages.
func parseKills(spec string) ([]newton.DeviceOutage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []newton.DeviceOutage
	for _, part := range strings.Split(spec, ",") {
		i := strings.IndexByte(part, '@')
		if i <= 0 {
			return nil, fmt.Errorf("bad -kill entry %q (want <device>@<ns>)", part)
		}
		dev, err1 := strconv.Atoi(strings.TrimSpace(part[:i]))
		at, err2 := strconv.ParseFloat(strings.TrimSpace(part[i+1:]), 64)
		if err1 != nil || err2 != nil || at <= 0 {
			return nil, fmt.Errorf("bad -kill entry %q (want <device>@<ns>)", part)
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

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
}

// compare is the default mode: a Newton fleet vs a GPU fleet per
// stream, with the fleet-scale p99 crossover load.
func compare(newtonCl, gpuCl *newton.Cluster, streams []stream, jsonOut bool) {
	if !jsonOut {
		fmt.Println("stream            newton p50/p95/p99               gpu p50/p95/p99                  newton qps  gpu qps   winner")
	}
	crossover := ""
	for _, s := range streams {
		nres, err := newtonCl.Replay(s.reqs)
		if err != nil {
			log.Fatal(err)
		}
		gres, err := gpuCl.Replay(s.reqs)
		if err != nil {
			log.Fatal(err)
		}
		winner := "Newton"
		if gres.Total.Latency.P99() < nres.Total.Latency.P99() {
			winner = "GPU"
			if crossover == "" {
				crossover = s.label
			}
		}
		if jsonOut {
			printJSON(record(s.label, "newton", nres))
			printJSON(record(s.label, "gpu", gres))
			continue
		}
		fmt.Printf("%-16s  %9s /%9s /%-9s  %9s /%9s /%-9s  %7.2fM    %6.2fM   %s\n",
			s.label,
			fmtNs(nres.Total.Latency.P50()), fmtNs(nres.Total.Latency.P95()), fmtNs(nres.Total.Latency.P99()),
			fmtNs(gres.Total.Latency.P50()), fmtNs(gres.Total.Latency.P95()), fmtNs(gres.Total.Latency.P99()),
			nres.Total.Throughput()/1e6, gres.Total.Throughput()/1e6, winner)
	}
	if jsonOut {
		return
	}
	if crossover != "" {
		fmt.Printf("\ncrossover: the GPU fleet's p99 overtakes the Newton fleet's at %s\n", crossover)
	} else {
		fmt.Println("\ncrossover: none in the studied range; the Newton fleet's p99 wins everywhere")
	}
}

// single runs one fleet over every stream with the per-device
// breakdown, router decisions, and drain accounting.
func single(cl *newton.Cluster, streams []stream, jsonOut bool) {
	backendName := "fleet"
	if devs := cl.Devices(); len(devs) > 0 {
		backendName = devs[0].Backend.Name()
	}
	for _, s := range streams {
		res, err := cl.Replay(s.reqs)
		if err != nil {
			log.Fatal(err)
		}
		if jsonOut {
			printJSON(record(s.label, backendName, res))
			continue
		}
		fmt.Printf("%s: %s\n", s.label, res.Total.Summary())
		for _, d := range res.Devices {
			fmt.Printf("  %-12s %s", d.Name, d.Metrics.Summary())
			if d.Health != newton.DeviceHealthy {
				fmt.Printf("  [%s]", d.Health)
			}
			fmt.Println()
		}
		r := res.Router
		fmt.Printf("  router: %d requests", r.Requests)
		if r.Fanout > 0 {
			fmt.Printf(", %d slice fan-outs", r.Fanout)
		}
		if r.Rerouted > 0 {
			fmt.Printf(", %d rerouted off the ring", r.Rerouted)
		}
		if r.Drained > 0 || r.DrainShed > 0 {
			fmt.Printf(", drained %d to siblings (%d lost)", r.Drained, r.DrainShed)
		}
		if r.ScaleUps > 0 || r.ScaleDowns > 0 {
			fmt.Printf(", %d scale-ups / %d scale-downs", r.ScaleUps, r.ScaleDowns)
		}
		fmt.Println()
	}
}

// serveObs exposes the registry and tracer over HTTP so the fleet
// exposition is live while the replay runs.
func serveObs(addr string, reg *newton.ObsRegistry, tr *newton.ObsTracer) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("-listen %s: %v", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", newton.ObsHandler(reg, tr))
	mux.Handle("/snapshot", newton.ObsHandler(reg, tr))
	fmt.Fprintf(os.Stderr, "observability on http://%s (/metrics /snapshot)\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Fatalf("-listen %s: %v", addr, err)
		}
	}()
}

// blockOnListen keeps the process alive after the runs when -listen is
// set, so the final exposition stays scrapeable.
func blockOnListen(addr string) {
	if addr == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "runs complete; still serving on %s (ctrl-C to exit)\n", addr)
	select {}
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// parseModels resolves the -models/-replicas/-split/-standby flags.
func parseModels(spec, replicas, split, standby string) ([]newton.ClusterModel, error) {
	names := strings.Split(spec, ",")
	repl, err := perModelInts("replicas", replicas, len(names))
	if err != nil {
		return nil, err
	}
	ways, err := perModelInts("split", split, len(names))
	if err != nil {
		return nil, err
	}
	spares, err := perModelInts("standby", standby, len(names))
	if err != nil {
		return nil, err
	}
	var models []newton.ClusterModel
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		m := newton.ClusterModel{Name: name, Replicas: repl[i], SplitAcross: ways[i], Standby: spares[i]}
		if m.SplitAcross >= 2 {
			// -replicas applies a fleet-wide default; a split model is
			// not replicated.
			m.Replicas = 0
		}
		if r, c, ok := parseShape(name); ok {
			m.Rows, m.Cols = r, c
		} else {
			found := false
			for _, b := range newton.TableII() {
				if b.Name == name {
					m.Rows, m.Cols = b.Rows, b.Cols
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown model %q (use a Table II name or RxC)", name)
			}
		}
		models = append(models, m)
	}
	return models, nil
}

// perModelInts expands a "-flag 4" or "-flag 4,2,1" spec to one value
// per model.
func perModelInts(flagName, spec string, n int) ([]int, error) {
	parts := strings.Split(spec, ",")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -%s entry %q", flagName, p)
		}
		vals = append(vals, v)
	}
	if len(vals) == 1 && n > 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = vals[0]
		}
		return out, nil
	}
	if len(vals) != n {
		return nil, fmt.Errorf("-%s has %d entries for %d models", flagName, len(vals), n)
	}
	return vals, nil
}

// parseShape accepts "512x256"-style custom shapes.
func parseShape(s string) (rows, cols int, ok bool) {
	i := strings.IndexByte(s, 'x')
	if i <= 0 {
		return 0, 0, false
	}
	r, err1 := strconv.Atoi(s[:i])
	c, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || r < 1 || c < 1 {
		return 0, 0, false
	}
	return r, c, true
}
