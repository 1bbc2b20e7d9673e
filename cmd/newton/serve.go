package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"newton"
	"newton/internal/obs"
)

// runServe replays synthetic or recorded request streams against a
// simulated inference-serving fleet (Newton channel shards, a
// dynamic-batching GPU, or the Ideal Non-PIM baseline) and reports tail
// latency, throughput and shed rates. Virtual time is deterministic: a
// (model set, load, seed) triple always prints the same numbers.
//
// The default mode (-backend both) sweeps offered loads with both the
// Newton and GPU fleets and reports the serving-level Fig. 12
// crossover: the load below which Newton's p99 wins and past which the
// GPU's amortized batches win, both measured by the same command.
// -split gives each model its own channel partition of the Newton
// device; -record writes each load's generated arrivals to one trace
// file, a serve.TraceHeader before each, and -trace replays every
// recorded stream on its own, so each row comes back under the label
// <file>#i; -hist prints a latency histogram per run.
func runServe(args []string, stdout io.Writer) error {
	fs := newFlagSet("serve", "[flags]")
	var fl fleetFlags
	fl.register(fs, "1e3,1e5,1e6,2e6,3e6,5e6", 20000, 7)
	split := fs.String("split", "", "channels per model: one value for all, or a comma-separated list (default: even split)")
	record := fs.String("record", "", "write generated arrivals to this trace file")
	hist := fs.Bool("hist", false, "print a latency histogram per run")
	if err := parse(fs, args, fl.check); err != nil {
		return err
	}

	models, err := parseServedModels(fl.models, *split)
	if err != nil {
		return err
	}
	shed, err := fl.shedPolicy()
	if err != nil {
		return err
	}
	kinds, err := fl.kinds()
	if err != nil {
		return err
	}
	streams, _, err := arrivalStreams(fl.trace, fl.loads, fl.n, fl.seed, len(models))
	if err != nil {
		return err
	}
	if *record != "" && fl.trace == "" {
		err := createFile(*record, func(w io.Writer) error {
			for _, s := range streams {
				if err := newton.FormatServeTrace(w, s.reqs); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d stream(s) to %s\n", len(streams), *record)
	}
	// With -listen, every fleet shares one registry and tracer; the
	// exposition is live while the runs execute and stays up afterwards
	// so the final counters and spans can be scraped or inspected.
	reg, tr, block, err := serveObs(fl.listen)
	if err != nil {
		return err
	}

	cfg := fl.config()
	servers := make([]*newton.Cluster, len(kinds))
	for i, kind := range kinds {
		cc := newton.ClusterConfig{
			Models:  models,
			Backend: kind,
			Seed:    fl.modelSeed,
			Options: newton.ClusterOptions{
				MaxBatch:   fl.maxBatch,
				MaxWait:    fl.maxWait,
				QueueDepth: fl.queue,
				Shed:       shed,
			},
		}
		if kind == newton.ServeGPU {
			cc.Options.MaxBatch = fl.gpuMaxBatch
		}
		if servers[i], err = cfg.NewServer(cc); err != nil {
			return fmt.Errorf("building %v fleet: %w", kind, err)
		}
		servers[i].Observe(reg, tr)
	}
	if len(servers) == 2 {
		err = serveCompare(stdout, servers[0], servers[1], streams)
	} else {
		err = serveSingle(stdout, servers[0], streams, *hist)
	}
	if err != nil {
		return err
	}
	return block()
}

// serveCompare is the default mode: Newton vs the batching GPU per
// stream, with the measured p99 crossover load.
func serveCompare(w io.Writer, newtonSrv, gpuSrv *newton.Cluster, streams []stream) error {
	fmt.Fprintln(w, "stream           newton p50/p99        gpu p50/p99           gpu batch  winner")
	crossover := ""
	for _, s := range streams {
		nres, err := newtonSrv.Replay(s.reqs)
		if err != nil {
			return err
		}
		gres, err := gpuSrv.Replay(s.reqs)
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
		fmt.Fprintf(w, "%-15s  %9s / %-9s  %9s / %-9s  %7.1f    %s\n",
			s.label,
			obs.FormatNs(nres.Total.Latency.P50()), obs.FormatNs(nres.Total.Latency.P99()),
			obs.FormatNs(gres.Total.Latency.P50()), obs.FormatNs(gres.Total.Latency.P99()),
			gres.Total.MeanBatch(), winner)
	}
	if crossover != "" {
		fmt.Fprintf(w, "\ncrossover: the batching GPU's p99 overtakes Newton's at %s\n", crossover)
	} else {
		fmt.Fprintln(w, "\ncrossover: none in the studied range; Newton's p99 wins everywhere")
	}
	return nil
}

// serveSingle runs one fleet over every stream with full metrics.
func serveSingle(w io.Writer, srv *newton.Cluster, streams []stream, hist bool) error {
	for _, s := range streams {
		res, err := srv.Replay(s.reqs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s\n", s.label, serveSummary(&res.Total))
		if showShards(res) {
			for _, sh := range res.Devices {
				fmt.Fprintf(w, "  %-20s %s  shed %d  retried %d",
					sh.Name, serveSummary(&sh.Metrics), sh.Metrics.Shed, sh.Metrics.Retried)
				if sh.Health != newton.DeviceHealthy {
					fmt.Fprintf(w, "  [%s]", sh.Health)
				}
				fmt.Fprintln(w)
			}
		}
		if hist {
			printHist(w, &res.Total.Latency)
		}
	}
	return nil
}

// showShards decides whether the per-shard breakdown adds information:
// multiple shards, or a single shard with something to report (shed or
// retried work, or a non-healthy state).
func showShards(res *newton.ClusterResult) bool {
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

// serveSummary renders one stream's report line: counts, tail latency,
// the achieved mean batch and throughput, and retries when there were
// any.
func serveSummary(m *newton.ServeMetrics) string {
	s := fmt.Sprintf("served %d/%d (shed %.1f%%)  p50/p95/p99 %s / %s / %s  mean batch %.2f  %.0f qps",
		m.Served, m.Arrived, 100*m.ShedFraction(),
		obs.FormatNs(m.Latency.P50()), obs.FormatNs(m.Latency.P95()), obs.FormatNs(m.Latency.P99()),
		m.MeanBatch(), m.Throughput())
	if m.Retried > 0 {
		s += fmt.Sprintf("  retried %d", m.Retried)
	}
	return s
}

// printHist renders the latency distribution as log-spaced bars.
func printHist(w io.Writer, h *newton.ServeHistogram) {
	buckets := h.Buckets(1000)
	maxN := 0
	for _, b := range buckets {
		maxN = max(maxN, b.N)
	}
	for _, b := range buckets {
		bar := strings.Repeat("#", b.N*40/maxN)
		fmt.Fprintf(w, "  %9s - %-9s %7d %s\n", obs.FormatNs(b.Lo), obs.FormatNs(b.Hi), b.N, bar)
	}
}

// parseServedModels resolves the -models and -split flags to a model
// set.
func parseServedModels(spec, split string) ([]newton.ClusterModel, error) {
	names := strings.Split(spec, ",")
	var parts []int
	if split != "" {
		var err error
		if parts, err = perModelInts("split", split, len(names), 0); err != nil {
			return nil, err
		}
	}
	models := make([]newton.ClusterModel, len(names))
	for i, raw := range names {
		m := &models[i]
		m.Name = strings.TrimSpace(raw)
		var err error
		if m.Rows, m.Cols, err = lookupShape(m.Name); err != nil {
			return nil, err
		}
		if parts != nil {
			m.Channels = parts[i]
		}
	}
	return models, nil
}
