// Command newton-serve replays synthetic or recorded request streams
// against a simulated inference-serving fleet — Newton channel shards,
// a dynamic-batching GPU, or the Ideal Non-PIM baseline — and reports
// tail latency, throughput and shed rates. Virtual time is
// deterministic: a (model set, load, seed) triple always prints the
// same numbers.
//
// The default mode sweeps offered loads with both the Newton and GPU
// fleets and reports the serving-level Fig. 12 crossover: the load
// below which Newton's p99 wins and past which the GPU's amortized
// batches win, both measured by the same binary.
//
// Usage:
//
//	newton-serve [flags]
//
//	  -models DLRM-s1            comma-separated Table II names or RxC shapes
//	  -split 12,12               channels per model (default: even split)
//	  -backend both              newton, gpu, ideal, or both
//	  -loads 1e3,1e5,...         offered loads in queries/s
//	  -n 20000                   arrivals per load
//	  -seed 7                    arrival-stream seed
//	  -max-batch 1               Newton/Ideal batch cap
//	  -gpu-max-batch 1024        GPU batch cap
//	  -max-wait 0                batcher hold deadline (virtual ns)
//	  -queue 0                   admission queue bound (0 = unbounded)
//	  -policy newest             shed policy when the queue is full
//	  -trace FILE                replay a trace file instead of Poisson arrivals
//	  -record FILE               write the generated arrivals to a trace file
//	  -hist                      print a latency histogram per run
//	  -listen ADDR               serve /metrics, /snapshot and /debug/pprof/*
//	                             on ADDR during the runs and block afterwards
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"newton"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("newton-serve: ")

	modelsFlag := flag.String("models", "DLRM-s1", "served models: Table II names or RxC shapes, comma-separated")
	splitFlag := flag.String("split", "", "channels per model, comma-separated (default: even split)")
	backend := flag.String("backend", "both", "fleet to simulate: newton, gpu, ideal, or both")
	loadsFlag := flag.String("loads", "1e3,1e5,1e6,2e6,3e6,5e6", "offered loads (queries/s), comma-separated")
	n := flag.Int("n", 20000, "arrivals per load")
	seed := flag.Int64("seed", 7, "arrival-stream seed")
	modelSeed := flag.Int64("model-seed", 42, "weight/calibration seed")
	maxBatch := flag.Int("max-batch", 1, "Newton/Ideal batch cap per launch")
	gpuMaxBatch := flag.Int("gpu-max-batch", 1024, "GPU batch cap per launch")
	maxWait := flag.Float64("max-wait", 0, "batcher hold deadline in virtual ns")
	queue := flag.Int("queue", 0, "admission queue bound (0 = unbounded)")
	policy := flag.String("policy", "newest", "shed policy when the queue is full: newest or oldest")
	channels := flag.Int("channels", 24, "memory channels")
	banks := flag.Int("banks", 16, "banks per channel")
	traceFile := flag.String("trace", "", "replay this arrival trace instead of Poisson streams")
	record := flag.String("record", "", "write generated arrivals to this trace file")
	hist := flag.Bool("hist", false, "print a latency histogram per run")
	listen := flag.String("listen", "", "serve /metrics, /snapshot and /debug/pprof/* on this address (blocks after the runs)")
	flag.Parse()

	cfg := newton.DefaultConfig()
	cfg.Channels = *channels
	cfg.Banks = *banks

	// With -listen, every fleet shares one registry and tracer; the
	// exposition is live while the runs execute and stays up afterwards
	// so the final counters and spans can be scraped or inspected.
	var reg *newton.ObsRegistry
	var tr *newton.ObsTracer
	if *listen != "" {
		reg, tr = newton.NewObsRegistry(), &newton.ObsTracer{}
		serveObs(*listen, reg, tr)
	}

	models, err := parseModels(*modelsFlag, *splitFlag)
	if err != nil {
		log.Fatal(err)
	}
	shed := newton.ShedNewest
	if *policy == "oldest" {
		shed = newton.ShedOldest
	} else if *policy != "newest" {
		log.Fatalf("unknown -policy %q", *policy)
	}

	build := func(kind newton.ServeBackendKind) *newton.Server {
		sc := newton.ServeConfig{
			Models:  models,
			Backend: kind,
			Seed:    *modelSeed,
			Options: newton.ServeOptions{
				MaxBatch:   *maxBatch,
				MaxWait:    *maxWait,
				QueueDepth: *queue,
				Shed:       shed,
			},
		}
		if kind == newton.ServeGPU {
			sc.Options.MaxBatch = *gpuMaxBatch
			// GPU fleets serve every model from one device; the
			// per-model channel partitions do not apply.
			ms := make([]newton.ServedModel, len(models))
			copy(ms, models)
			for i := range ms {
				ms[i].Channels = 0
			}
			sc.Models = ms
		}
		srv, err := cfg.NewServer(sc)
		if err != nil {
			log.Fatalf("building %v fleet: %v", kind, err)
		}
		srv.Observe(reg, tr)
		return srv
	}

	streams, err := arrivalStreams(*traceFile, *loadsFlag, *n, *seed, models, *record)
	if err != nil {
		log.Fatal(err)
	}

	if *backend == "both" {
		compare(build(newton.ServeNewton), build(newton.ServeGPU), streams)
		blockOnListen(*listen)
		return
	}
	var kind newton.ServeBackendKind
	switch *backend {
	case "newton":
		kind = newton.ServeNewton
	case "gpu":
		kind = newton.ServeGPU
	case "ideal":
		kind = newton.ServeIdeal
	default:
		log.Fatalf("unknown -backend %q", *backend)
	}
	single(build(kind), streams, *hist)
	blockOnListen(*listen)
}

// serveObs exposes the registry and tracer over HTTP: the Prometheus /
// JSON routes from the observability package plus the standard pprof
// handlers. It fails fast on an unusable address and serves in the
// background so metrics are live while the replay runs.
func serveObs(addr string, reg *newton.ObsRegistry, tr *newton.ObsTracer) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("-listen %s: %v", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", newton.ObsHandler(reg, tr))
	mux.Handle("/snapshot", newton.ObsHandler(reg, tr))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "observability on http://%s (/metrics /snapshot /debug/pprof/)\n", ln.Addr())
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

// stream is one labelled arrival sequence.
type stream struct {
	label string
	reqs  []newton.ServeRequest
}

// arrivalStreams builds the run's request streams: either the replayed
// trace file, or one seeded Poisson stream per offered load.
func arrivalStreams(traceFile, loads string, n int, seed int64, models []newton.ServedModel, record string) ([]stream, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		reqs, err := newton.ParseServeTrace(f)
		if err != nil {
			return nil, err
		}
		return []stream{{label: traceFile, reqs: reqs}}, nil
	}
	weights := make([]float64, len(models))
	for i, m := range models {
		weights[i] = m.Weight
		if weights[i] <= 0 {
			weights[i] = 1
		}
	}
	var streams []stream
	for _, part := range strings.Split(loads, ",") {
		qps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || qps <= 0 {
			return nil, fmt.Errorf("bad load %q", part)
		}
		streams = append(streams, stream{
			label: fmt.Sprintf("%.0f qps", qps),
			reqs:  newton.PoissonRequests(n, qps, weights, seed),
		})
	}
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		for _, s := range streams {
			if err := newton.FormatServeTrace(f, s.reqs); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(os.Stderr, "recorded %d stream(s) to %s\n", len(streams), record)
	}
	return streams, nil
}

// compare is the default mode: Newton vs the batching GPU per stream,
// with the measured p99 crossover load.
func compare(newtonSrv, gpuSrv *newton.Server, streams []stream) {
	fmt.Println("stream           newton p50/p99        gpu p50/p99           gpu batch  winner")
	crossover := ""
	for _, s := range streams {
		nres, err := newtonSrv.Replay(s.reqs)
		if err != nil {
			log.Fatal(err)
		}
		gres, err := gpuSrv.Replay(s.reqs)
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
		fmt.Printf("%-15s  %9s / %-9s  %9s / %-9s  %7.1f    %s\n",
			s.label,
			fmtNs(nres.Total.Latency.P50()), fmtNs(nres.Total.Latency.P99()),
			fmtNs(gres.Total.Latency.P50()), fmtNs(gres.Total.Latency.P99()),
			gres.Total.MeanBatch(), winner)
	}
	if crossover != "" {
		fmt.Printf("\ncrossover: the batching GPU's p99 overtakes Newton's at %s\n", crossover)
	} else {
		fmt.Println("\ncrossover: none in the studied range; Newton's p99 wins everywhere")
	}
}

// single runs one fleet over every stream with full metrics.
func single(srv *newton.Server, streams []stream, hist bool) {
	for _, s := range streams {
		res, err := srv.Replay(s.reqs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s\n", s.label, summary(&res.Total))
		if showShards(res) {
			for _, sh := range res.Devices {
				fmt.Printf("  %-20s %s  shed %d  retried %d",
					sh.Name, summary(&sh.Metrics), sh.Metrics.Shed, sh.Metrics.Retried)
				if sh.Health != newton.DeviceHealthy {
					fmt.Printf("  [%s]", sh.Health)
				}
				fmt.Println()
			}
		}
		if hist {
			printHist(&res.Total.Latency)
		}
	}
}

// showShards decides whether the per-shard breakdown adds information:
// multiple shards, or a single shard with something to report (shed or
// retried work, or a non-healthy state).
func showShards(res *newton.ServeResult) bool {
	if len(res.Devices) > 1 {
		return true
	}
	for _, sh := range res.Devices {
		if sh.Metrics.Shed > 0 || sh.Metrics.Retried > 0 || sh.Health != newton.DeviceHealthy {
			return true
		}
	}
	return false
}

// summary renders one stream's report line: counts, tail latency, the
// achieved mean batch and throughput, and retries when there were any.
func summary(m *newton.ServeMetrics) string {
	s := fmt.Sprintf("served %d/%d (shed %.1f%%)  p50/p95/p99 %s / %s / %s  mean batch %.2f  %.0f qps",
		m.Served, m.Arrived, 100*m.ShedFraction(),
		fmtNs(m.Latency.P50()), fmtNs(m.Latency.P95()), fmtNs(m.Latency.P99()),
		m.MeanBatch(), m.Throughput())
	if m.Retried > 0 {
		s += fmt.Sprintf("  retried %d", m.Retried)
	}
	return s
}

// printHist renders the latency distribution as log-spaced bars.
func printHist(h *newton.ServeHistogram) {
	buckets := h.Buckets(1000)
	maxN := 0
	for _, b := range buckets {
		if b.N > maxN {
			maxN = b.N
		}
	}
	for _, b := range buckets {
		bar := strings.Repeat("#", b.N*40/maxN)
		fmt.Printf("  %9s - %-9s %7d %s\n", fmtNs(b.Lo), fmtNs(b.Hi), b.N, bar)
	}
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

// parseModels resolves the -models / -split flags to a model set.
func parseModels(spec, split string) ([]newton.ServedModel, error) {
	names := strings.Split(spec, ",")
	var parts []int
	if split != "" {
		for _, p := range strings.Split(split, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("bad -split entry %q", p)
			}
			parts = append(parts, v)
		}
		if len(parts) != len(names) {
			return nil, fmt.Errorf("-split has %d entries for %d models", len(parts), len(names))
		}
	}
	var models []newton.ServedModel
	for i, raw := range names {
		name := strings.TrimSpace(raw)
		m := newton.ServedModel{Name: name}
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
		if parts != nil {
			m.Channels = parts[i]
		}
		models = append(models, m)
	}
	return models, nil
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
