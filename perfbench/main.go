// Command newton-perfbench is the repository's benchmark. It drives one
// workload of the Newton simulator through the simulator's public
// packages as a closed loop with one op in flight, checks ops' outputs
// against an independent reference, and prints one JSON result
// line. README.md explains the workloads and every metric.
//
// Usage:
//
//	newton-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures in child processes, one after another, and
// reports the end-to-end metrics over all their ops. With --trace 1 it
// runs the loop itself in two halves, the second with spans and a CPU
// profile on, and reports the per-layer metrics; spans and profile are
// written under --trace-dir.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stationarityFactor is how many times slower or faster the second
// half's op_p50_ms may be than the first half's before the run is
// declared drifting. Other tenants of a shared machine move memory-bound
// op times by up to 1.5x for seconds at a time, so only a larger change
// counts.
const stationarityFactor = 2.0

// checkEvery thins the checks after the loop: every op of the window is
// checked, and past it one op in checkEvery. The references cost about
// as much host time as the ops they check, so checking every op doubled
// a run's wall time.
const checkEvery = 4

// An untraced run measures in child processes, one after another, each
// for an equal share of --seconds at the same seed; the workload says how
// many. On the shared machines this runs on, one process's op times can
// sit 10-20% off another's at the same seed for its whole life, and the
// calibration (calib.go) explains only part of that. Pooling the ops of
// several processes averages the rest out.

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	child    bool
	inject   float64
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one timed op as the end-to-end metrics see it.
type opRecord struct {
	// Pos is the op's position in its unit: ops at one position do the
	// same work.
	Pos      int     `json:"pos"`
	Ms       float64 `json:"ms"`
	Requests float64 `json:"requests"`
	Cycles   float64 `json:"cycles"`
}

// partial is one child process's result: its ops, set-up times and
// calibration samples, and its figures that do not depend on host speed.
type partial struct {
	Correct        bool         `json:"correct"`
	Attempted      int          `json:"attempted"`
	Failed         int          `json:"failed"`
	Unit           int          `json:"unit"`
	Ops            []opRecord   `json:"ops"`
	Setups         []float64    `json:"setups"`
	Calib          [3][]float64 `json:"calib"`
	RSSMiB         float64      `json:"rss_mib"`
	SimCyclesPerOp float64      `json:"sim_cycles_per_op"`
	SimReqP99      float64      `json:"sim_req_p99_cycles"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "how long the op loop runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.child, "child", false, "measure in this process and print its ops for the parent (internal)")
	flag.Float64Var(&cfg.inject, "inject-slowdown", 0, "stretch every timed op by this fraction (gate-sensitivity check)")
	flag.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes spans and its CPU profile")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || cfg.inject < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --inject-slowdown non-negative")
		os.Exit(2)
	}
	if _, ok := newWorkload(cfg.workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	var out any
	var err error
	switch {
	case cfg.trace:
		out, err = traced(cfg)
	case cfg.child:
		out, err = measure(cfg)
	default:
		out, err = parent(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one process's run: the workload plus every op's host time and
// simulated statistics, in op order.
type bench struct {
	cfg    config
	w      workload
	tr     *tracer
	cal    *calibrator
	setups []float64 // seconds per set-up
	rssMiB float64   // peak resident set once the window's ops have run
	times  []float64 // host ms per op
	stats  []opStats
	// failures are the ops that returned an error or a wrong output.
	failures []error
	// correct is false when an op failed or a guard tripped.
	correct bool
	start   time.Time // when the op loop began
}

// phase is one stretch of the op loop.
type phase struct {
	first, end int // op index range [first, end)
	rt         runtimeDelta
	profile    []byte
}

// runLoop sets the workload up, runs the op loop (in two halves when
// traced) and checks the ops (checkEvery).
func runLoop(cfg config) (*bench, []phase, error) {
	w, _ := newWorkload(cfg.workload)
	cal, err := newCalibrator()
	if err != nil {
		return nil, nil, err
	}
	b := &bench{cfg: cfg, w: w, tr: newTracer(cfg.trace), cal: cal}

	for r := 0; r < w.setupReps(); r++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(cfg.seed, b.tr); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
	b.start = time.Now()

	// Ops are checked after the loop, so the loop's time goes to ops and
	// the CPU profile holds op work only.
	var phases []phase
	if cfg.trace {
		b.tr.on = false
		phases = append(phases, b.loop(cfg.seconds/2, false))
		b.tr.on = true
		phases = append(phases, b.loop(cfg.seconds/2, true))
	} else {
		phases = append(phases, b.loop(cfg.seconds, false))
	}
	errs := make([]error, w.records())
	forEach(len(errs), func(k int) {
		if k < w.window() || k%checkEvery == 0 {
			errs[k] = w.check(k)
		}
	})
	for _, err := range errs {
		if err != nil {
			b.failures = append(b.failures, err)
		}
	}
	for _, err := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setup %.2fs x%d, %d ops in %.1fs, GOMAXPROCS %d, raw op_p50_ms %.3f, machine factor %.4f\n",
		cfg.workload, cfg.seed, sum(b.setups), len(b.setups), len(b.times), time.Since(b.start).Seconds(), runtime.GOMAXPROCS(0),
		quantile(fold(b.records(phases[0]), w.unit()).ms, 0.5), b.cal.factor())
	b.correct = len(b.failures) == 0
	for _, err := range []error{b.stationary(phases[0]), w.guard()} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			b.correct = false
		}
	}
	return b, phases, nil
}

// traced runs the loop in this process and reports the per-layer
// metrics.
func traced(cfg config) (*report, error) {
	b, phases, err := runLoop(cfg)
	if err != nil {
		return nil, err
	}
	m, err := b.perLayer(phases[0], phases[1])
	if err != nil {
		return nil, err
	}
	if err := b.writeTrace(phases[1].profile); err != nil {
		return nil, err
	}
	return &report{Correct: b.correct, Attempted: len(b.times), Failed: len(b.failures), Metrics: m}, nil
}

// measure runs the loop in this child process and reports its ops.
func measure(cfg config) (*partial, error) {
	b, phases, err := runLoop(cfg)
	if err != nil {
		return nil, err
	}
	win := b.stats[:b.w.window()]
	var winCycles float64
	for _, st := range win {
		winCycles += st.simCycles
	}
	return &partial{
		Correct:        b.correct,
		Attempted:      len(b.times),
		Failed:         len(b.failures),
		Unit:           b.w.unit(),
		Ops:            b.records(phases[0]),
		Setups:         b.setups,
		Calib:          b.cal.samples,
		RSSMiB:         b.rssMiB,
		SimCyclesPerOp: winCycles / float64(len(win)),
		SimReqP99:      b.w.tail(win),
	}, nil
}

// parent runs the child processes one after another, each with the same
// arguments and an equal share of the seconds, and reports the
// end-to-end metrics over all their ops.
func parent(cfg config) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	w, _ := newWorkload(cfg.workload)
	n := w.processes()
	args := append(os.Args[1:], "--child", "--seconds", strconv.FormatFloat(cfg.seconds/float64(n), 'g', -1, 64))
	var parts []*partial
	for c := 0; c < n; c++ {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		// The child dies with the parent, so no process outlives a run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", c, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var p partial
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", c, err)
		}
		parts = append(parts, &p)
	}
	rep := &report{Correct: true}
	for _, p := range parts {
		rep.Correct = rep.Correct && p.Correct
		rep.Attempted += p.Attempted
		rep.Failed += p.Failed
		if p.SimCyclesPerOp != parts[0].SimCyclesPerOp || p.SimReqP99 != parts[0].SimReqP99 {
			fmt.Fprintln(os.Stderr, "perfbench: the measuring processes simulated different cycles at one seed")
			rep.Correct = false
		}
	}
	rep.Metrics = endToEnd(parts)
	return rep, nil
}

// loop runs ops for about d. It stops once it has run at least one
// window and one unit, and once another op would overshoot d by more
// than half an op. Without a profile it runs the calibration kernels
// between ops.
func (b *bench) loop(d float64, profiled bool) phase {
	ph := phase{first: len(b.times)}
	minOps := max(b.w.window(), b.w.unit())
	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			profiled = false
		}
	}
	rt0 := readRuntime()
	start := time.Now()
	for {
		i := len(b.times)
		n := i - ph.first
		if n >= minOps {
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(n)/2 >= d {
				break
			}
		}
		if !profiled {
			b.cal.maybe(i)
		}
		b.w.prepare(i)
		b.tr.op = i
		opSpan := b.tr.begin("op")
		t0 := time.Now()
		st, err := b.w.run(b.tr)
		dt := time.Since(t0)
		if b.cfg.inject > 0 {
			target := time.Duration(float64(dt) * (1 + b.cfg.inject))
			for time.Since(t0) < target {
			}
			dt = time.Since(t0)
		}
		b.tr.end(opSpan)
		b.w.settle(i, &st)
		b.times = append(b.times, float64(dt)/1e6)
		b.stats = append(b.stats, st)
		if len(b.times) == b.w.window() {
			// Read after a fixed op count: the records the loop keeps for
			// the checks grow with the number of ops a run fits in. The
			// calibration buffer is resident throughout and is not the
			// simulator's memory.
			b.rssMiB = peakRSSMiB() - calibBufBytes/(1<<20)
		}
		if err != nil {
			b.failures = append(b.failures, fmt.Errorf("op %d: %w", i, err))
		}
	}
	ph.rt = readRuntime().since(rt0)
	if profiled {
		pprof.StopCPUProfile()
		ph.profile = prof.Bytes()
	}
	ph.end = len(b.times)
	return ph
}

// stationary compares the calibrated op_p50_ms of the phase's first and
// second halves, so a drifting workload fails loudly instead of reading
// as noise. Each half is calibrated by its own samples: the machine alone
// has run 2.3 times slower for a second.
func (b *bench) stationary(ph phase) error {
	recs := b.records(ph)
	mid := len(recs) / 2
	if mid < b.w.unit() {
		return nil
	}
	p1 := quantile(fold(recs[:mid], b.w.unit()).ms, 0.5) / b.cal.factorOver(ph.first, ph.first+mid)
	p2 := quantile(fold(recs[mid:], b.w.unit()).ms, 0.5) / b.cal.factorOver(ph.first+mid, ph.end)
	if r := p2 / p1; r > stationarityFactor || r < 1/stationarityFactor {
		return fmt.Errorf("stationarity guard: calibrated op_p50_ms %.3f in the first half, %.3f in the second", p1, p2)
	}
	return nil
}

// records lists the phase's ops.
func (b *bench) records(ph phase) []opRecord {
	var recs []opRecord
	for i := ph.first; i < ph.end; i++ {
		recs = append(recs, opRecord{Pos: i % b.w.unit(), Ms: b.times[i], Requests: b.stats[i].requests, Cycles: b.stats[i].simCycles})
	}
	return recs
}

// folded is a list of ops with those that do the same work folded into
// one entry. When a unit holds different ops (fig9-sweep's ladder), op i
// and op i+unit do the same work, so each position in the unit is one
// entry: the median of its ops' host times, requests and cycles.
// Quantiles and rates then weigh every position once, whatever share of
// a unit a run ends in, and one slow pass moves no entry. With unit 1
// every op is its own entry.
type folded struct {
	ms, requests, cycles []float64
}

func fold(recs []opRecord, unit int) folded {
	var f folded
	if unit == 1 {
		for _, r := range recs {
			f.ms = append(f.ms, r.Ms)
			f.requests = append(f.requests, r.Requests)
			f.cycles = append(f.cycles, r.Cycles)
		}
		return f
	}
	byPos := make([][]opRecord, unit)
	for _, r := range recs {
		byPos[r.Pos] = append(byPos[r.Pos], r)
	}
	for _, rs := range byPos {
		if len(rs) == 0 {
			continue
		}
		var ms, requests, cycles []float64
		for _, r := range rs {
			ms = append(ms, r.Ms)
			requests = append(requests, r.Requests)
			cycles = append(cycles, r.Cycles)
		}
		f.ms = append(f.ms, quantile(ms, 0.5))
		f.requests = append(f.requests, quantile(requests, 0.5))
		f.cycles = append(f.cycles, quantile(cycles, 0.5))
	}
	return f
}

// endToEnd derives the end-to-end metrics from the measuring processes'
// pooled ops and set-ups. Each process's host times are first scaled to
// the calibration kernels' nominal speed by that process's own samples,
// since the machine's speed moves from one process to the next. The
// simulated figures are the same in every process.
func endToEnd(parts []*partial) map[string]metric {
	var raw, recs []opRecord
	var setups, rss []float64
	for _, p := range parts {
		f := calibFactor(p.Calib)
		raw = append(raw, p.Ops...)
		for _, r := range p.Ops {
			r.Ms /= f
			recs = append(recs, r)
		}
		for _, s := range p.Setups {
			setups = append(setups, s/f)
		}
		rss = append(rss, p.RSSMiB)
	}
	ops := fold(recs, parts[0].Unit)
	seconds := sum(ops.ms) / 1e3
	fmt.Fprintf(os.Stderr, "perfbench: %d processes, %d ops, raw op_p50_ms %.3f, calibrated %.3f\n",
		len(parts), len(recs), quantile(fold(raw, parts[0].Unit).ms, 0.5), quantile(ops.ms, 0.5))
	return map[string]metric{
		"op_p50_ms":          {quantile(ops.ms, 0.5), "ms"},
		"requests_per_s":     {sum(ops.requests) / seconds, "1/s"},
		"sim_cycles_per_s":   {sum(ops.cycles) / seconds, "cycles/s"},
		"sim_cycles_per_op":  {parts[0].SimCyclesPerOp, "cycles"},
		"sim_req_p99_cycles": {parts[0].SimReqP99, "cycles"},
		"setup_s":            {quantile(setups, 0.5), "s"},
		"peak_rss_mb":        {quantile(rss, 0.5), "MiB"},
	}
}

// perLayer derives the per-layer metrics: simulated counts over the
// deterministic window, span times over the traced run (setup included),
// and runtime and CPU-profile figures over the traced phase.
func (b *bench) perLayer(plain, traced phase) (map[string]metric, error) {
	m := map[string]metric{}
	spans := b.tr.totals()
	for _, name := range spanMetrics {
		s := spans[name]
		v := 0.0
		if s.n > 0 {
			v = s.ns / float64(s.n) / 1e6
		}
		m[name+"_ms"] = metric{v, "ms"}
	}

	win := b.stats[:b.w.window()]
	var sum opStats
	for _, st := range win {
		sum.add(st)
	}
	k := float64(len(win))
	m["dram.cmds_per_op"] = metric{sum.cmds / k, "count"}
	m["dram.acts_per_op"] = metric{sum.acts / k, "count"}
	m["dram.refs_per_op"] = metric{sum.refs / k, "count"}
	m["mem.reqs_per_op"] = metric{sum.memReqs / k, "count"}
	m["mem.inrun_bytes_per_op"] = metric{sum.memInRunBytes / k, "bytes"}
	m["mem.stall_cycles_per_op"] = metric{sum.memStallCycles / k, "cycles"}
	m["isr.instrs_per_op"] = metric{sum.instrs / k, "count"}
	m["cluster.shed_frac"] = metric{ratio(sum.shed, sum.arrived), "frac"}
	m["cluster.mean_batch"] = metric{ratio(sum.devServed, sum.launches), "count"}

	// Host time per simulated command and per routed request, over the
	// traced phase's op spans.
	var tracedSum opStats
	for _, st := range b.stats[traced.first:traced.end] {
		tracedSum.add(st)
	}
	opSpans := b.tr.totalsFrom(traced.first)
	runNs := opSpans["host.run"].ns + opSpans["isr.run"].ns
	m["host.ns_per_cmd"] = metric{ratio(runNs, tracedSum.cmds), "ns"}
	m["cluster.ns_per_request"] = metric{ratio(opSpans["cluster.replay"].ns, tracedSum.requests), "ns"}

	ops := float64(traced.end - traced.first)
	m["go.alloc_mb_per_op"] = metric{traced.rt.allocBytes / ops / (1 << 20), "MiB"}
	m["go.allocs_per_op"] = metric{traced.rt.allocObjects / ops, "count"}
	m["go.gc_cpu_frac"] = metric{ratio(traced.rt.gcCPU, traced.rt.totalCPU), "frac"}

	shares, total, err := cpuShares(traced.profile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, bucket := range cpuBuckets {
		m["cpu."+bucket] = metric{100 * ratio(shares[bucket], total), "%"}
	}
	m["prof.cpu_s"] = metric{total / 1e9, "s"}

	plainMs := fold(b.records(plain), b.w.unit()).ms
	plainP50 := quantile(plainMs, 0.5)
	m["op_p90_ms"] = metric{quantile(plainMs, 0.9) / b.cal.factor(), "ms"}
	m["trace.overhead_ms"] = metric{quantile(fold(b.records(traced), b.w.unit()).ms, 0.5) - plainP50, "ms"}
	m["calib.raw_op_p50_ms"] = metric{plainP50, "ms"}
	m["calib.factor"] = metric{b.cal.factor(), "ratio"}
	return m, nil
}

// writeTrace writes the run's spans and CPU profile under the trace
// directory, named after the workload and seed.
func (b *bench) writeTrace(profile []byte) error {
	if err := os.MkdirAll(b.cfg.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.cfg.traceDir, fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed))
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.cfg.workload, b.cfg.seed, b.tr.spans}
	js, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// nearestRank returns the nearest-rank p-quantile of xs: an observed
// sample, so simulated tails repeat exactly.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeDelta is the Go runtime's allocation and CPU accounting over a
// phase.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{v(0), v(1), v(2), v(3)}
}

func (r runtimeDelta) since(p runtimeDelta) runtimeDelta {
	return runtimeDelta{r.allocBytes - p.allocBytes, r.allocObjects - p.allocObjects,
		r.gcCPU - p.gcCPU, r.totalCPU - p.totalCPU}
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the memory the Go runtime holds.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
