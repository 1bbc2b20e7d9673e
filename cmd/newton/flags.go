package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"

	"newton"
	"newton/internal/conformance"
	"newton/internal/serve"
	"newton/internal/workloads"
)

// usageError is a bad command line, such as a bad flag value, whose
// message then names the flag. The command exits 2.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

// badFlag reports a bad value for the flag name.
func badFlag(name, format string, args ...any) error {
	return &usageError{"-" + name + ": " + fmt.Sprintf(format, args...)}
}

// errUsage marks a command line the flag package has already reported
// on stderr, together with the subcommand's usage.
var errUsage = errors.New("usage")

// newFlagSet starts a subcommand's flags. Parse errors return to the
// caller rather than exiting, so subcommands also run in-process.
func newFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet("newton "+name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: newton %s %s\n\nflags:\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses a subcommand's arguments, then runs its flag checks in
// order. No subcommand takes positional arguments, so one left over
// (which would silently end flag parsing) is an error too.
func parse(fs *flag.FlagSet, args []string, checks ...func() error) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		return &usageError{fmt.Sprintf("unexpected argument %q (flags only)", fs.Arg(0))}
	}
	for _, check := range checks {
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// atLeast1 rejects a count flag below 1.
func atLeast1(name string, v int) error {
	if v < 1 {
		return badFlag(name, "must be at least 1, got %d", v)
	}
	return nil
}

// atLeast0 rejects a count flag below 0.
func atLeast0(name string, v int64) error {
	if v < 0 {
		return badFlag(name, "must be 0 or more, got %d", v)
	}
	return nil
}

// finiteTime rejects a virtual-time flag that is negative, NaN or
// infinite.
func finiteTime(name string, ns float64) error {
	if !(ns >= 0) || math.IsInf(ns, 1) {
		return badFlag(name, "must be a finite time >= 0 ns, got %g", ns)
	}
	return nil
}

// geometry is the simulated device's shape.
type geometry struct{ channels, banks int }

// register adds -channels, with the subcommand's default, and -banks.
func (g *geometry) register(fs *flag.FlagSet, channels int) {
	fs.IntVar(&g.channels, "channels", channels, "memory channels per device")
	fs.IntVar(&g.banks, "banks", 16, "banks per channel")
}

// check rejects a device without channels or banks.
func (g *geometry) check() error {
	return errors.Join(atLeast1("channels", g.channels), atLeast1("banks", g.banks))
}

// config is the paper's Newton configuration at this geometry.
func (g geometry) config() newton.Config {
	cfg := newton.DefaultConfig()
	cfg.Channels, cfg.Banks = g.channels, g.banks
	return cfg
}

// resolveShape picks a product's matrix shape: -rows and -cols together
// override the -workload Table II layer.
func resolveShape(workload string, rows, cols int) (r, c int, err error) {
	switch {
	case rows == 0 && cols == 0:
		b, ok := workloads.ByName(workload)
		if !ok {
			return 0, 0, badFlag("workload", "%q is not a Table II layer (newton sim -list names them)", workload)
		}
		return b.Rows, b.Cols, nil
	case rows < 1:
		return 0, 0, badFlag("rows", "must be at least 1 with -cols, got %d", rows)
	case cols < 1:
		return 0, 0, badFlag("cols", "must be at least 1 with -rows, got %d", cols)
	}
	return rows, cols, nil
}

// fleetFlags are the flags serve and cluster share: the device geometry,
// the model set and backend, the request streams, each device's batcher
// and queue, and the -listen endpoint.
type fleetFlags struct {
	geometry
	models, backend, loads, shed, trace, listen string
	n, maxBatch, gpuMaxBatch, queue             int
	seed, modelSeed                             int64
	maxWait                                     float64
}

// register adds the fleet flags with the defaults that differ between
// serve and cluster: the offered loads, arrivals per load and the
// arrival-stream seed.
func (f *fleetFlags) register(fs *flag.FlagSet, loads string, n int, seed int64) {
	f.geometry.register(fs, 24)
	fs.StringVar(&f.models, "models", "DLRM-s1", "served models: Table II names or RxC shapes, comma-separated")
	fs.StringVar(&f.backend, "backend", "both", "fleet to simulate: newton, gpu, ideal, or both")
	fs.StringVar(&f.loads, "loads", loads, "offered loads (queries/s), comma-separated")
	fs.IntVar(&f.n, "n", n, "arrivals per load")
	fs.Int64Var(&f.seed, "seed", seed, "arrival-stream seed")
	fs.Int64Var(&f.modelSeed, "model-seed", 42, "weight/calibration seed")
	fs.IntVar(&f.maxBatch, "max-batch", 1, "Newton/Ideal batch cap per device launch")
	fs.IntVar(&f.gpuMaxBatch, "gpu-max-batch", 1024, "GPU batch cap per launch")
	fs.Float64Var(&f.maxWait, "max-wait", 0, "batcher hold deadline in virtual ns")
	fs.IntVar(&f.queue, "queue", 0, "per-device admission queue bound (0 = unbounded)")
	fs.StringVar(&f.shed, "shed", "newest", "shed policy when a device queue is full: newest or oldest")
	fs.StringVar(&f.trace, "trace", "", "replay this arrival trace instead of Poisson streams")
	fs.StringVar(&f.listen, "listen", "", "serve /metrics, /snapshot and /debug/pprof/* on this address (blocks after the runs)")
}

// check rejects geometry, batcher and queue values a fleet would run
// silently wrong or refuse without naming the flag.
func (f *fleetFlags) check() error {
	return errors.Join(f.geometry.check(), atLeast1("max-batch", f.maxBatch), atLeast1("gpu-max-batch", f.gpuMaxBatch),
		atLeast0("queue", int64(f.queue)), finiteTime("max-wait", f.maxWait))
}

// kinds maps -backend to the fleets to simulate; "both" is the
// Newton-versus-GPU comparison.
func (f *fleetFlags) kinds() ([]newton.ServeBackendKind, error) {
	switch f.backend {
	case "both":
		return []newton.ServeBackendKind{newton.ServeNewton, newton.ServeGPU}, nil
	case "newton":
		return []newton.ServeBackendKind{newton.ServeNewton}, nil
	case "gpu":
		return []newton.ServeBackendKind{newton.ServeGPU}, nil
	case "ideal":
		return []newton.ServeBackendKind{newton.ServeIdeal}, nil
	}
	return nil, badFlag("backend", "%q is not newton, gpu, ideal or both", f.backend)
}

// shedPolicy maps -shed to the device queues' shed policy.
func (f *fleetFlags) shedPolicy() (newton.ShedPolicy, error) {
	switch f.shed {
	case "newest":
		return newton.ShedNewest, nil
	case "oldest":
		return newton.ShedOldest, nil
	}
	return 0, badFlag("shed", "%q is not newest or oldest", f.shed)
}

// lookupShape resolves one -models entry: a Table II layer name or an
// RxC shape such as 512x256.
func lookupShape(name string) (rows, cols int, err error) {
	if b, ok := workloads.ByName(name); ok {
		return b.Rows, b.Cols, nil
	}
	if rs, cs, ok := strings.Cut(name, "x"); ok {
		r, err1 := strconv.Atoi(rs)
		c, err2 := strconv.Atoi(cs)
		if err1 == nil && err2 == nil && r >= 1 && c >= 1 {
			return r, c, nil
		}
	}
	return 0, 0, badFlag("models", "unknown model %q (use a Table II name or RxC)", name)
}

// perModelInts expands a "-flag 4" or "-flag 4,2,1" spec to one value
// per model, each at least min.
func perModelInts(flagName, spec string, n, min int) ([]int, error) {
	parts := strings.Split(spec, ",")
	vals := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badFlag(flagName, "bad entry %q", p)
		}
		if v < min {
			return nil, badFlag(flagName, "entry %d must be %d or more", v, min)
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
		return nil, badFlag(flagName, "%d entries for %d models", len(vals), n)
	}
	return vals, nil
}

// stream is one labelled arrival sequence.
type stream struct {
	label string
	reqs  []newton.ServeRequest
}

// arrivalStreams builds a run's request streams: the replayed trace
// file, or one seeded Poisson stream of n arrivals per offered load,
// spread evenly over the models. It also returns the longest stream's
// horizon in virtual ns, which seeded outage campaigns span.
//
// A trace file replays one stream per serve.TraceHeader, as -record
// writes one per load, labelled <file>#1, <file>#2, ... A file with at
// most one header is one stream labelled with the file's name.
func arrivalStreams(traceFile, loads string, n int, seed int64, models int) ([]stream, float64, error) {
	horizon := 1.0
	if traceFile != "" {
		data, err := os.ReadFile(traceFile)
		if err != nil {
			return nil, 0, err
		}
		parts := splitTraces(string(data))
		streams := make([]stream, len(parts))
		for i, part := range parts {
			s := &streams[i]
			s.label = traceFile
			if len(parts) > 1 {
				s.label = fmt.Sprintf("%s#%d", traceFile, i+1)
			}
			if s.reqs, err = newton.ParseServeTrace(strings.NewReader(part)); err != nil {
				if len(parts) > 1 {
					err = fmt.Errorf("%s: %w", s.label, err)
				}
				return nil, 0, err
			}
			for _, q := range s.reqs {
				horizon = max(horizon, q.T)
			}
		}
		return streams, horizon, nil
	}
	if err := atLeast1("n", n); err != nil {
		return nil, 0, err
	}
	weights := make([]float64, models)
	for i := range weights {
		weights[i] = 1
	}
	var streams []stream
	for _, part := range strings.Split(loads, ",") {
		qps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(qps > 0) || math.IsInf(qps, 1) {
			return nil, 0, badFlag("loads", "bad load %q (want finite queries/s > 0)", part)
		}
		horizon = max(horizon, float64(n)/qps*1e9)
		streams = append(streams, stream{
			label: fmt.Sprintf("%.0f qps", qps),
			reqs:  newton.PoissonRequests(n, qps, weights, seed),
		})
	}
	return streams, horizon, nil
}

// splitTraces splits a trace file's text before each serve.TraceHeader
// line after the first; text before the first header stays with the
// first part.
func splitTraces(text string) []string {
	var parts []string
	start, headers := 0, 0
	for off := 0; off < len(text); {
		n := strings.IndexByte(text[off:], '\n') + 1
		if n == 0 {
			n = len(text) - off
		}
		if strings.TrimSpace(text[off:off+n]) == serve.TraceHeader {
			if headers > 0 {
				parts = append(parts, text[start:off])
				start = off
			}
			headers++
		}
		off += n
	}
	return append(parts, text[start:])
}

// serveObs starts the -listen endpoint: the registry's Prometheus and
// JSON routes plus the standard pprof handlers, served in the background
// so metrics are live while the runs execute. An empty addr observes
// nothing. The returned block keeps the endpoint up after the runs, so
// the final exposition stays scrapeable; it returns only if the server
// fails.
func serveObs(addr string) (*newton.ObsRegistry, *newton.ObsTracer, func() error, error) {
	if addr == "" {
		return nil, nil, func() error { return nil }, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("-listen %s: %w", addr, err)
	}
	reg, tr := newton.NewObsRegistry(), &newton.ObsTracer{}
	mux := http.NewServeMux()
	mux.Handle("/metrics", newton.ObsHandler(reg, tr))
	mux.Handle("/snapshot", newton.ObsHandler(reg, tr))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "observability on http://%s (/metrics /snapshot /debug/pprof/)\n", ln.Addr())
	served := make(chan error, 1)
	go func() { served <- http.Serve(ln, mux) }()
	block := func() error {
		fmt.Fprintf(os.Stderr, "runs complete; still serving on %s (ctrl-C to exit)\n", addr)
		return fmt.Errorf("-listen %s: %w", addr, <-served)
	}
	return reg, tr, block, nil
}

// verifySummary reports a clean -verify run on stderr. Checked runs fail
// fast on the first violation, so reaching it means every checked
// command was clean.
func verifySummary() {
	fmt.Fprintf(os.Stderr, "conformance: %d commands checked, 0 violations\n",
		conformance.TotalCommandsChecked())
}

// createFile writes the file at path through fill.
func createFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
