package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"newton"
	"newton/internal/bf16"
	"newton/internal/cluster"
	"newton/internal/dram"
	"newton/internal/experiments"
	"newton/internal/gpu"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/nn"
	"newton/internal/workloads"
)

// workload is one benchmark workload. The loop calls prepare (untimed),
// run (the timed op) and settle (untimed) per op; check verifies a
// recorded op, inline or after the loop.
type workload interface {
	// processes is how many processes an untraced run measures in.
	processes() int
	// setupReps is how many times setup runs in each measuring process;
	// setup_s is the median over all of them.
	setupReps() int
	// window is the number of leading ops whose simulated statistics are
	// reported; they repeat exactly at a seed whatever the host speed.
	window() int
	// unit is the period of the ops' work: op i and op i+unit do the
	// same work on different inputs. It is 1 when every op does.
	unit() int
	// setup builds the workload's state from the seed, replacing any
	// earlier state.
	setup(seed int64, tr *tracer) error
	// prepare generates op i's inputs from the seed.
	prepare(i int)
	// run executes the prepared op.
	run(tr *tracer) (opStats, error)
	// settle gathers op i's simulated statistics that cost host time to
	// read, outside the timed region.
	settle(i int, st *opStats)
	// tail is the simulated p99 request latency over the window.
	tail(window []opStats) float64
	// records is the number of ops whose run succeeded.
	records() int
	// check verifies the k-th successful op's output. It is safe to call
	// concurrently for different k.
	check(k int) error
	// guard reports a workload-specific stationarity failure.
	guard() error
}

// opStats is one op's simulated work.
type opStats struct {
	// requests is the user-level work the op completed: MVMs,
	// inferences, design points or routed requests.
	requests float64
	// simCycles is the simulated time the op covered, in 1 GHz cycles
	// (= virtual ns).
	simCycles float64
	// latencies are the simulated durations of the op's requests.
	latencies []float64

	cmds, acts, refs, instrs               float64
	memReqs, memInRunBytes, memStallCycles float64
	arrived, shed, devServed, launches     float64
}

func (s *opStats) add(o opStats) {
	s.requests += o.requests
	s.simCycles += o.simCycles
	s.cmds += o.cmds
	s.acts += o.acts
	s.refs += o.refs
	s.instrs += o.instrs
	s.memReqs += o.memReqs
	s.memInRunBytes += o.memInRunBytes
	s.memStallCycles += o.memStallCycles
	s.arrived += o.arrived
	s.shed += o.shed
	s.devServed += o.devServed
	s.launches += o.launches
}

var registry = map[string]func() workload{
	"mvm-cold":    func() workload { return &mvmWorkload{shapes: []string{"GNMT-s1", "BERT-s2"}} },
	"model-isr":   func() workload { return &modelISR{} },
	"fig9-sweep":  func() workload { return &fig9Sweep{} },
	"coexist-qos": func() workload { return &mvmWorkload{shapes: []string{"GNMT-s1"}, coexist: true} },
	"fleet-route": func() workload { return &fleetRoute{} },
}

func newWorkload(name string) (workload, bool) {
	f, ok := registry[name]
	if !ok {
		return nil, false
	}
	return f(), true
}

func workloadNames() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// deviceConfig is newton.DefaultConfig's device (24 channels x 16
// banks) lowered to the simulator's configuration; aggressiveTFAW picks
// the AiM timing preset, as the façade and the experiments do.
func deviceConfig(aggressiveTFAW bool) dram.Config {
	geo := dram.HBM2EGeometry(24)
	geo.Banks = 16
	t := dram.ConventionalTiming()
	if aggressiveTFAW {
		t = dram.AiMTiming()
	}
	return dram.Config{Geometry: geo, Timing: t}
}

func tableLayer(name string) workloads.Bench {
	b, ok := workloads.ByName(name)
	if !ok {
		panic("perfbench: no Table II layer " + name)
	}
	return b
}

// randVec draws a fresh input vector in [-1, 1).
func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(2*rng.Float64() - 1)
	}
	return v
}

// forEach runs fn for i in [0, n) on GOMAXPROCS goroutines and returns
// when all are done.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sameBits reports the first element where got and want differ in bits.
func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d elements, reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("output[%d] = %g, reference %g", i, got[i], want[i])
		}
	}
	return nil
}

// nearestRankTail is the default tail: p99 over the window's request
// latencies.
func nearestRankTail(window []opStats) float64 {
	var lat []float64
	for _, st := range window {
		lat = append(lat, st.latencies...)
	}
	return nearestRank(lat, 0.99)
}

// ---- mvm-cold and coexist-qos ----------------------------------------

// coexistTraffic is coexist-qos's conventional load: below saturation,
// so the backlog DrainTraffic leaves stays bounded.
var coexistTraffic = newton.TrafficConfig{IntensityReqPerUs: 8, ReadFraction: 0.7, Locality: newton.TrafficHitStreak}

// mvmWorkload runs cold System.MatVec calls, one per shape per op, each
// on a fresh input. With coexist set the system carries conventional
// traffic under mem-priority QoS and each op ends with DrainTraffic.
type mvmWorkload struct {
	shapes  []string
	coexist bool

	seed   int64
	sys    *newton.System
	placed []*newton.PlacedMatrix
	rng    *rand.Rand
	in     [][]float32
	recs   []mvmRecord

	// Coexistence bookkeeping: the traffic report after the last window
	// op, its p99 at the window's end, and ops whose drain outlasted the
	// product it followed.
	traffic    newton.TrafficStats
	trafficP99 float64
	longDrains int

	refOnce sync.Once
	refs    []*layout.Placement
	refErr  error
}

type mvmRecord struct {
	in, out [][]float32
}

func (w *mvmWorkload) processes() int { return 5 }
func (w *mvmWorkload) setupReps() int { return 2 }
func (w *mvmWorkload) window() int    { return 16 }
func (w *mvmWorkload) unit() int      { return 1 }

func (w *mvmWorkload) setup(seed int64, tr *tracer) error {
	*w = mvmWorkload{shapes: w.shapes, coexist: w.coexist, seed: seed, rng: rand.New(rand.NewSource(seed))}
	cfg := newton.DefaultConfig()
	if w.coexist {
		traffic := coexistTraffic
		traffic.Seed = seed
		cfg.Coexist = &newton.CoexistConfig{Traffic: traffic, Policy: newton.PolicyMemPriority}
	}
	id := tr.begin("host.new")
	sys, err := newton.NewSystem(cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	w.sys = sys
	for k, name := range w.shapes {
		b := tableLayer(name)
		id = tr.begin("layout.synth")
		m := newton.RandomMatrix(b.Rows, b.Cols, seed+int64(k))
		tr.end(id)
		id = tr.begin("layout.place")
		pm, err := sys.Load(m)
		tr.end(id)
		if err != nil {
			return err
		}
		w.placed = append(w.placed, pm)
	}
	return nil
}

func (w *mvmWorkload) prepare(int) {
	w.in = make([][]float32, len(w.shapes))
	for k, name := range w.shapes {
		w.in[k] = randVec(w.rng, tableLayer(name).Cols)
	}
}

func (w *mvmWorkload) run(tr *tracer) (opStats, error) {
	var st opStats
	rec := mvmRecord{in: w.in}
	var aimCycles int64
	for k, pm := range w.placed {
		id := tr.begin("host.run")
		out, rs, err := w.sys.MatVec(pm, w.in[k])
		tr.end(id)
		if err != nil {
			return st, err
		}
		rec.out = append(rec.out, out)
		aimCycles += rs.Cycles
		st.requests++
		st.latencies = append(st.latencies, float64(rs.Cycles))
		st.cmds += float64(rs.Commands)
		st.acts += float64(rs.Activations)
		st.refs += float64(rs.Refreshes)
	}
	st.simCycles = float64(aimCycles)
	w.recs = append(w.recs, rec)
	if w.coexist {
		before := w.sys.Now()
		id := tr.begin("host.drain")
		err := w.sys.DrainTraffic()
		tr.end(id)
		if err != nil {
			return st, err
		}
		drain := w.sys.Now() - before
		st.simCycles += float64(drain)
		if drain > aimCycles {
			w.longDrains++
		}
	}
	return st, nil
}

func (w *mvmWorkload) settle(i int, st *opStats) {
	if !w.coexist || i >= w.window() {
		return
	}
	ts := w.sys.TrafficStats()
	st.memReqs = float64(ts.Requests - w.traffic.Requests)
	st.memInRunBytes = float64(ts.InRunBytes - w.traffic.InRunBytes)
	st.memStallCycles = float64(ts.StallCycles - w.traffic.StallCycles)
	w.traffic = ts
	w.trafficP99 = float64(ts.P99)
}

func (w *mvmWorkload) tail(window []opStats) float64 {
	if w.coexist {
		return w.trafficP99
	}
	return nearestRankTail(window)
}

func (w *mvmWorkload) records() int { return len(w.recs) }

// check compares the op's outputs bit for bit with
// host.DatapathReference on an independently synthesized copy of the
// weights.
func (w *mvmWorkload) check(k int) error {
	w.refOnce.Do(func() {
		for i, name := range w.shapes {
			b := tableLayer(name)
			m := layout.RandomMatrix(b.Rows, b.Cols, w.seed+int64(i))
			p, err := layout.NewPlacementAt(deviceConfig(true).Geometry, layout.Interleaved, m, 0)
			if err != nil {
				w.refErr = err
				return
			}
			w.refs = append(w.refs, p)
		}
	})
	if w.refErr != nil {
		return w.refErr
	}
	r := w.recs[k]
	for i, p := range w.refs {
		want, err := host.DatapathReference(p, bf16.FromFloat32Slice(r.in[i]))
		if err == nil {
			err = sameBits(r.out[i], want)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.shapes[i], err)
		}
	}
	return nil
}

// guard fails coexist-qos when its backlog grows: every drain must be
// shorter than the product before it, and the requests served must keep
// up with the offered load.
func (w *mvmWorkload) guard() error {
	if !w.coexist {
		return nil
	}
	if w.longDrains > 0 {
		return fmt.Errorf("backlog guard: %d drains outlasted their product", w.longDrains)
	}
	offered := coexistTraffic.IntensityReqPerUs * float64(newton.DefaultConfig().Channels) * float64(w.sys.Now()) / 1000
	if served := float64(w.sys.TrafficStats().Requests); served < 0.95*offered {
		return fmt.Errorf("backlog guard: %.0f requests served of about %.0f offered", served, offered)
	}
	return nil
}

// ---- model-isr --------------------------------------------------------

// dlrmEnvelope bounds the on-device DLRM output's distance from the
// per-layer path: the sigmoid LUT's bfloat16 envelope amplified by
// BatchNorm. The figure's input gives 1.64 and fresh inputs reach about
// 2.2; 4 is the bound the repository's e2e perf gate applies.
const dlrmEnvelope = 4.0

// modelISR runs whole-model DLRM inference as one ISR program per op:
// the calls System.RunModelOnDevice makes (NewExecutor, Compile,
// RunProgram), issued directly so compile and run time split.
type modelISR struct {
	seed int64
	ctrl *host.Controller
	pm   *nn.PlacedModel
	rng  *rand.Rand
	in   []float32
	recs []isrRecord

	// shadows holds one reference system per concurrent check.
	shadowOnce sync.Once
	shadows    chan shadowModel
	shadowErr  error
}

type shadowModel struct {
	sys *newton.System
	pm  *newton.PlacedModel
}

type isrRecord struct {
	in, out []float32
}

func (w *modelISR) processes() int { return 5 }
func (w *modelISR) setupReps() int { return 2 }
func (w *modelISR) window() int    { return 16 }
func (w *modelISR) unit() int      { return 1 }

func (w *modelISR) setup(seed int64, tr *tracer) error {
	*w = modelISR{seed: seed, rng: rand.New(rand.NewSource(seed))}
	id := tr.begin("host.new")
	ctrl, err := host.NewController(deviceConfig(true), host.Newton())
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("nn.place")
	pm, err := nn.PlaceModel(ctrl, workloads.DLRM(), seed)
	tr.end(id)
	if err != nil {
		return err
	}
	w.ctrl, w.pm = ctrl, pm
	return nil
}

func (w *modelISR) prepare(int) { w.in = randVec(w.rng, w.pm.Spec.InputWidth()) }

func (w *modelISR) run(tr *tracer) (opStats, error) {
	var st opStats
	before := w.ctrl.Stats()
	ex, err := nn.NewExecutor(w.ctrl, w.pm)
	if err != nil {
		return st, err
	}
	id := tr.begin("nn.compile")
	prog, err := ex.Compile(w.in)
	tr.end(id)
	if err != nil {
		return st, err
	}
	id = tr.begin("isr.run")
	res, err := ex.RunProgram(prog)
	tr.end(id)
	if err != nil {
		return st, err
	}
	d := w.ctrl.Stats().Diff(before)
	w.recs = append(w.recs, isrRecord{in: w.in, out: res.Output})
	st.requests = 1
	st.simCycles = float64(res.Cycles)
	st.latencies = []float64{float64(res.Cycles)}
	st.cmds = float64(d.TotalCommands())
	st.acts = float64(d.Activations)
	st.refs = float64(d.Refreshes)
	st.instrs = float64(res.Instrs)
	return st, nil
}

func (w *modelISR) settle(int, *opStats)          {}
func (w *modelISR) tail(window []opStats) float64 { return nearestRankTail(window) }
func (w *modelISR) guard() error                  { return nil }

func (w *modelISR) records() int { return len(w.recs) }

// check runs the op's input through the per-layer System.RunModel path
// on a separate system holding the same weights and bounds the
// difference.
func (w *modelISR) check(k int) error {
	w.shadowOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		w.shadows = make(chan shadowModel, n)
		for i := 0; i < n; i++ {
			sys, err := newton.NewSystem(newton.DefaultConfig())
			if err != nil {
				w.shadowErr = err
				return
			}
			pm, err := sys.LoadModel(newton.DLRMModel(), w.seed)
			if err != nil {
				w.shadowErr = err
				return
			}
			w.shadows <- shadowModel{sys, pm}
		}
	})
	if w.shadowErr != nil {
		return w.shadowErr
	}
	sh := <-w.shadows
	defer func() { w.shadows <- sh }()
	r := w.recs[k]
	ref, err := sh.sys.RunModel(sh.pm, r.in)
	if err != nil {
		return err
	}
	if len(ref.Output) != len(r.out) {
		return fmt.Errorf("output has %d elements, per-layer path %d", len(r.out), len(ref.Output))
	}
	for j := range r.out {
		if d := math.Abs(float64(r.out[j] - ref.Output[j])); !(d <= dlrmEnvelope) {
			return fmt.Errorf("output[%d] = %g, per-layer path %g", j, r.out[j], ref.Output[j])
		}
	}
	return nil
}

// ---- fig9-sweep --------------------------------------------------------

// fig9Sweep runs the Fig. 9 optimization ladder one design point per op:
// a fresh controller, freshly synthesized weights, placement and one
// cold RunMVM, in experiments.Config.Fig9's order. AlexNet-L6 is left
// out: it alone takes most of the ladder's time.
type fig9Sweep struct {
	seed     int64
	benches  []workloads.Bench
	steps    []experiments.Fig9Step
	speedups [][]float64 // Config.Fig9's rows: [bench][step]
	gpuNs    []float64   // the GPU model's layer time per bench

	cur  fig9Record
	recs []fig9Record
}

type fig9Record struct {
	point  int
	wseed  int64
	in     bf16.Vector
	out    []float32
	cycles int64
}

func (w *fig9Sweep) points() int                   { return len(w.benches) * len(w.steps) }
func (w *fig9Sweep) processes() int                { return 3 }
func (w *fig9Sweep) setupReps() int                { return 1 }
func (w *fig9Sweep) window() int                   { return w.points() }
func (w *fig9Sweep) unit() int                     { return w.points() }
func (w *fig9Sweep) tail(window []opStats) float64 { return nearestRankTail(window) }
func (w *fig9Sweep) guard() error                  { return nil }
func (w *fig9Sweep) settle(int, *opStats)          {}

// setup has no state to build; it runs the reference ladder the ops'
// cycles are checked against.
func (w *fig9Sweep) setup(seed int64, tr *tracer) error {
	*w = fig9Sweep{seed: seed, steps: experiments.Fig9Steps()}
	for _, b := range workloads.TableII() {
		if b.Name != "AlexNet-L6" {
			w.benches = append(w.benches, b)
		}
	}
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.Benchmarks = w.benches
	id := tr.begin("experiments.fig9")
	rows, _, err := cfg.Fig9()
	tr.end(id)
	if err != nil {
		return err
	}
	g := gpu.TitanV()
	g.MemChannels = cfg.Channels
	for j, b := range w.benches {
		w.speedups = append(w.speedups, rows[j].Speedups)
		w.gpuNs = append(w.gpuNs, g.LayerTime(b.Rows, b.Cols))
	}
	return nil
}

// prepare picks op i's design point. Pass p over the ladder synthesizes
// weights from seed+2p and the input from seed+2p+1, so pass 0 is
// exactly Config.Fig9's point.
func (w *fig9Sweep) prepare(i int) {
	point, pass := i%w.points(), i/w.points()
	b := w.benches[point/len(w.steps)]
	wseed := w.seed + 2*int64(pass)
	w.cur = fig9Record{point: point, wseed: wseed, in: bf16.Vector(layout.RandomMatrix(b.Cols, 1, wseed+1).Data)}
}

func (w *fig9Sweep) run(tr *tracer) (opStats, error) {
	var st opStats
	b := w.benches[w.cur.point/len(w.steps)]
	step := w.steps[w.cur.point%len(w.steps)]
	id := tr.begin("host.new")
	ctrl, err := host.NewController(deviceConfig(step.AggressiveTFAW), step.Opts)
	tr.end(id)
	if err != nil {
		return st, err
	}
	id = tr.begin("layout.synth")
	m := layout.RandomMatrix(b.Rows, b.Cols, w.cur.wseed)
	tr.end(id)
	id = tr.begin("layout.place")
	p, err := ctrl.Place(m)
	tr.end(id)
	if err != nil {
		return st, err
	}
	id = tr.begin("host.run")
	res, err := ctrl.RunMVM(p, w.cur.in)
	tr.end(id)
	if err != nil {
		return st, err
	}
	rec := w.cur
	rec.out, rec.cycles = res.Output, res.Cycles
	w.recs = append(w.recs, rec)
	st.requests = 1
	st.simCycles = float64(res.Cycles)
	st.latencies = []float64{float64(res.Cycles)}
	st.cmds = float64(res.Stats.TotalCommands())
	st.acts = float64(res.Stats.Activations)
	st.refs = float64(res.Stats.Refreshes)
	return st, nil
}

func (w *fig9Sweep) records() int { return len(w.recs) }

// check compares the point's cycles with Config.Fig9's speedup and its
// output bit for bit with host.DatapathReference on re-synthesized
// weights.
func (w *fig9Sweep) check(k int) error {
	r := w.recs[k]
	bi, si := r.point/len(w.steps), r.point%len(w.steps)
	b, step := w.benches[bi], w.steps[si]
	if got, want := w.gpuNs[bi]/float64(r.cycles), w.speedups[bi][si]; got != want {
		return fmt.Errorf("%s %s: %d cycles give speedup %g, Config.Fig9 has %g", b.Name, step.Label, r.cycles, got, want)
	}
	m := layout.RandomMatrix(b.Rows, b.Cols, r.wseed)
	p, err := layout.NewPlacementAt(deviceConfig(step.AggressiveTFAW).Geometry, step.Opts.LayoutKind(), m, 0)
	if err != nil {
		return err
	}
	want, err := host.DatapathReference(p, r.in)
	if err == nil {
		err = sameBits(r.out, want)
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", b.Name, step.Label, err)
	}
	return nil
}

// ---- fleet-route ---------------------------------------------------------

// fleetRequests and fleetQPS make one fleet-route op: a Poisson trace
// offered at about three quarters of the fleet's capacity (about 3.3M
// requests/s with this model mix), so queues form but stay bounded.
const (
	fleetRequests = 100000
	fleetQPS      = 2.5e6
)

// fleetRoute routes a fresh Poisson trace per op through a Newton fleet:
// DLRM-s1 on four least-loaded replicas plus GNMT-s1 row-split across
// two devices. The simulator runs only in calibration, at setup.
type fleetRoute struct {
	seed      int64
	rng       *rand.Rand
	cl        *newton.Cluster
	traceSeed int64
	last      *newton.ClusterResult
	latency   cluster.Histogram // merged over the window
	recs      []fleetRecord
}

type fleetRecord struct {
	routed, arrived, served, shed int64
}

func (w *fleetRoute) processes() int { return 5 }
func (w *fleetRoute) setupReps() int { return 2 }
func (w *fleetRoute) window() int    { return 24 }
func (w *fleetRoute) unit() int      { return 1 }
func (w *fleetRoute) guard() error   { return nil }

func (w *fleetRoute) setup(seed int64, tr *tracer) error {
	*w = fleetRoute{seed: seed, rng: rand.New(rand.NewSource(seed))}
	dlrm, gnmt := tableLayer("DLRM-s1"), tableLayer("GNMT-s1")
	id := tr.begin("serve.calibrate")
	cl, err := newton.DefaultConfig().NewCluster(newton.ClusterConfig{
		Models: []newton.ClusterModel{
			{Name: dlrm.Name, Rows: dlrm.Rows, Cols: dlrm.Cols, Replicas: 4, Weight: 9},
			{Name: gnmt.Name, Rows: gnmt.Rows, Cols: gnmt.Cols, SplitAcross: 2, Weight: 1},
		},
		Options: newton.ClusterOptions{MaxBatch: 8, Policy: newton.RouteLeastLoaded},
		Seed:    seed,
	})
	tr.end(id)
	w.cl = cl
	return err
}

func (w *fleetRoute) prepare(int) { w.traceSeed = w.rng.Int63() }

func (w *fleetRoute) run(tr *tracer) (opStats, error) {
	var st opStats
	id := tr.begin("cluster.replay")
	res, err := w.cl.ServePoisson(fleetRequests, fleetQPS, w.traceSeed)
	tr.end(id)
	if err != nil {
		return st, err
	}
	w.last = res
	w.recs = append(w.recs, fleetRecord{res.Router.Requests, res.Total.Arrived, res.Total.Served, res.Total.Shed})
	st.requests = fleetRequests
	st.simCycles = res.Total.LastCompletion - res.Total.FirstArrival
	st.arrived = float64(res.Total.Arrived)
	st.shed = float64(res.Total.Shed)
	for _, d := range res.Devices {
		st.devServed += float64(d.Metrics.Served)
		st.launches += float64(d.Metrics.Launches)
	}
	return st, nil
}

func (w *fleetRoute) settle(i int, _ *opStats) {
	if i < w.window() && w.last != nil {
		w.latency.Merge(&w.last.Total.Latency)
	}
	w.last = nil
}

func (w *fleetRoute) tail([]opStats) float64 { return w.latency.P99() }

func (w *fleetRoute) records() int { return len(w.recs) }

// check accounts for every request: each was offered once and was
// either served or shed.
func (w *fleetRoute) check(k int) error {
	r := w.recs[k]
	if r.routed != fleetRequests || r.arrived != fleetRequests || r.served+r.shed != r.arrived {
		return fmt.Errorf("offered %d, routed %d, arrived %d, served %d, shed %d",
			fleetRequests, r.routed, r.arrived, r.served, r.shed)
	}
	return nil
}
