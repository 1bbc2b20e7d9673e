package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"newton/internal/obs"
)

// shapeBackend prices a batch as a per-model base plus a per-unit
// increment, so both the batch size and the model mix move completion
// times.
type shapeBackend struct {
	base []float64
	per  float64
}

func (b *shapeBackend) Name() string { return "shape" }
func (b *shapeBackend) ServiceCycles(model, batch int) float64 {
	return b.base[model%len(b.base)] + b.per*float64(batch)
}

// goldenCase is one randomly shaped fleet and stream.
type goldenCase struct {
	devices    []Device
	placements []Placement
	opt        Options
	stream     []Request
	observe    bool // attach a registry and a tracer
}

func (c *goldenCase) String() string {
	fails, standbys := 0, 0
	for _, d := range c.devices {
		if d.FailAt > 0 {
			fails++
		}
		if d.Standby {
			standbys++
		}
	}
	return fmt.Sprintf("%d devices (%d failing, %d standby), %d models, %d requests, batch %d wait %g depth %d %v %v autoscale=%v observe=%v",
		len(c.devices), fails, standbys, len(c.placements), len(c.stream),
		c.opt.MaxBatch, c.opt.MaxWait, c.opt.QueueDepth, c.opt.Policy, c.opt.Shed, c.opt.Autoscale != nil, c.observe)
}

// randomCase draws a fleet of 1-6 devices serving 1-3 models, each
// replicated or split 2-3 ways, with failures (tied times included)
// along failover chains that may cycle, standbys under autoscaling,
// READRES retry plans, and a stream that is unsorted, sorted with tied
// arrivals, or Poisson.
func randomCase(rng *rand.Rand) goldenCase {
	var c goldenCase
	nDev, nModel := 1+rng.Intn(6), 1+rng.Intn(3)
	c.devices = make([]Device, nDev)
	for i := range c.devices {
		base := make([]float64, nModel)
		for m := range base {
			base[m] = float64(20 + rng.Intn(180))
		}
		c.devices[i] = Device{Name: fmt.Sprintf("d%d", i), Backend: &shapeBackend{base: base, per: float64(rng.Intn(30))}}
	}
	lists := func(di, m int) bool {
		for _, x := range c.devices[di].Models {
			if x == m {
				return true
			}
		}
		return false
	}
	inSlice := make([]bool, nDev)
	for m := 0; m < nModel; m++ {
		perm := rng.Perm(nDev)
		p := Placement{Model: m}
		if nDev >= 2 && rng.Intn(3) == 0 {
			p.Slices = append(p.Slices, perm[:min(nDev, 2+rng.Intn(2))]...)
			for _, di := range p.Slices {
				inSlice[di] = true
				c.devices[di].Models = append(c.devices[di].Models, m)
			}
		} else {
			p.Replicas = append(p.Replicas, perm[:1+rng.Intn(nDev)]...)
			for _, di := range p.Replicas {
				c.devices[di].Models = append(c.devices[di].Models, m)
			}
		}
		c.placements = append(c.placements, p)
	}
	// Some devices can also serve a model they hold no placement for:
	// failover chains may drain to them.
	for i := range c.devices {
		for m := 0; m < nModel; m++ {
			if !lists(i, m) && rng.Intn(4) == 0 {
				c.devices[i].Models = append(c.devices[i].Models, m)
			}
		}
	}

	n := 10 + rng.Intn(300)
	gap := 2 + rng.Intn(60) // mean virtual ns between arrivals
	span := n * gap
	c.opt = Options{
		MaxBatch:   1 + rng.Intn(8),
		QueueDepth: rng.Intn(7),
		Policy:     RoutePolicy(rng.Intn(2)),
		Shed:       ShedPolicy(rng.Intn(2)),
	}
	if rng.Intn(4) > 0 {
		c.opt.MaxWait = float64(rng.Intn(501))
	}
	if rng.Intn(2) == 0 {
		c.opt.ReduceNs = float64(rng.Intn(40))
	}
	if rng.Intn(3) == 0 {
		c.opt.Autoscale = &Autoscale{
			SLOP99Ns: float64(100 + rng.Intn(3000)),
			MaxQueue: int64(rng.Intn(10)),
			WarmupNs: float64(rng.Intn(300)),
			Window:   1 + rng.Intn(16),
		}
		for i := range c.devices {
			if !inSlice[i] && rng.Intn(3) == 0 {
				c.devices[i].Standby = true
			}
		}
	}

	// Two failure instants per trial, so deaths often tie.
	failAt := []float64{float64(1 + rng.Intn(span)), float64(1 + rng.Intn(span))}
	for i := range c.devices {
		d := &c.devices[i]
		switch rng.Intn(6) {
		case 0, 1:
			d.FailAt = failAt[rng.Intn(2)]
		case 2:
			if rng.Intn(4) == 0 {
				d.FailAt = math.Inf(1) // never
			}
		}
		if nDev > 1 && rng.Intn(2) == 0 {
			d.FailoverTo = c.devices[(i+1+rng.Intn(nDev-1))%nDev].Name
		}
		if rng.Intn(4) == 0 {
			d.Retry = RetryPlan{
				Seed:              rng.Int63n(1000),
				DetectedPerLaunch: 0.1 + 0.4*rng.Float64(),
				MaxRetries:        rng.Intn(3),
				DegradeAfter:      int64(rng.Intn(4)),
				DegradedPenalty:   1 + rng.Float64(),
			}
		}
	}

	c.stream = make([]Request, n)
	mode := rng.Intn(3)
	t := 0.0
	for i := range c.stream {
		var at float64
		switch mode {
		case 0: // unsorted, tied integer arrivals
			at = float64(rng.Intn(span))
		case 1: // sorted, tied integer arrivals
			at = float64((i * gap) / 3 * 3)
		default: // sorted Poisson arrivals
			t += rng.ExpFloat64() * float64(gap)
			at = t
		}
		c.stream[i] = Request{T: at, Model: rng.Intn(nModel)}
	}
	c.observe = rng.Intn(4) == 0
	return c
}

// hashMetrics feeds every counter, bound and histogram sample (as raw
// float64 bits, in recording order) of m into h.
func hashMetrics(h hash.Hash, m *Metrics) {
	fmt.Fprintf(h, "arr %d srv %d shed %d launch %d retry %d in %d out %d peak %d first %x last %x\n",
		m.Arrived, m.Served, m.Shed, m.Launches, m.Retried, m.DrainedIn, m.DrainedOut, m.PeakQueue,
		math.Float64bits(m.FirstArrival), math.Float64bits(m.LastCompletion))
	var b [8]byte
	for _, hist := range []*Histogram{&m.Latency, &m.QueueWait, &m.Service, &m.Batch} {
		fmt.Fprintf(h, "hist %d:", hist.Count())
		hist.Each(func(v float64) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		})
	}
}

// replayDigest runs one case and returns its Result with the SHA-256
// of it (and, when the case observes, of the registry and span JSON).
func replayDigest(t *testing.T, c goldenCase) (*Result, string) {
	t.Helper()
	var reg *obs.Registry
	var tracer *obs.Tracer
	opt := c.opt
	if c.observe {
		reg, tracer = obs.New(), &obs.Tracer{}
		opt.Obs, opt.Tracer = reg, tracer
	}
	f, err := New(c.devices, c.placements, opt)
	if err != nil {
		t.Fatalf("%v: %v", &c, err)
	}
	before := append([]Request(nil), c.stream...)
	res, err := f.Replay(c.stream)
	if err != nil {
		t.Fatalf("%v: %v", &c, err)
	}
	if !reflect.DeepEqual(before, c.stream) {
		t.Fatalf("%v: Replay wrote the caller's stream", &c)
	}
	h := sha256.New()
	for i := range res.Devices {
		d := &res.Devices[i]
		fmt.Fprintf(h, "device %s %s %v\n", d.Name, d.Backend, d.Health)
		hashMetrics(h, &d.Metrics)
	}
	fmt.Fprint(h, "total\n")
	hashMetrics(h, &res.Total)
	fmt.Fprintf(h, "router %+v\n", res.Router)
	if c.observe {
		if err := reg.WriteJSON(h, tracer); err != nil {
			t.Fatal(err)
		}
	}
	return res, hex.EncodeToString(h.Sum(nil))
}

const goldenTrials = 200

// TestReplayGolden pins the router's results over random fleets: every
// counter, health state, router statistic and histogram sample, plus
// the metrics and span JSON where a registry and tracer are attached,
// hashed per trial. The file was recorded from the router that
// rescanned every device queue per event, before launch times were
// cached, so any change to event order or launch timing shows up as a
// changed trial. Set NEWTON_WRITE_GOLDEN=1 to regenerate after an
// intentional change to routing behaviour.
func TestReplayGolden(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SHA-256 of Fleet.Replay's Result per random trial (see TestReplayGolden).\n")
	var cover RouterStats
	var devShed, retried, degraded int64
	cases := make([]goldenCase, goldenTrials)
	for trial := range cases {
		c := randomCase(rand.New(rand.NewSource(int64(trial))))
		cases[trial] = c
		res, digest := replayDigest(t, c)
		fmt.Fprintf(&got, "%03d %s\n", trial, digest)
		cover.Fanout += res.Router.Fanout
		cover.Rerouted += res.Router.Rerouted
		cover.Drained += res.Router.Drained
		cover.DrainShed += res.Router.DrainShed
		cover.ScaleUps += res.Router.ScaleUps
		cover.ScaleDowns += res.Router.ScaleDowns
		retried += res.Total.Retried
		for _, d := range res.Devices {
			devShed += d.Metrics.Shed
			if d.Health == Degraded {
				degraded++
			}
		}
	}
	// The trials must keep reaching every router path the golden guards.
	for name, n := range map[string]int64{
		"fan-out": cover.Fanout, "reroutes": cover.Rerouted, "drains": cover.Drained,
		"drain sheds": cover.DrainShed, "scale-ups": cover.ScaleUps, "scale-downs": cover.ScaleDowns,
		"device sheds": devShed, "retries": retried, "degraded devices": degraded,
	} {
		if n == 0 {
			t.Errorf("no trial produced any %s", name)
		}
	}

	path := filepath.Join("testdata", "replay_golden.txt")
	if os.Getenv("NEWTON_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set NEWTON_WRITE_GOLDEN=1 to regenerate)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		if num, digest, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(num, "#") {
			wantLines[num] = digest
		}
	}
	bad := 0
	sc = bufio.NewScanner(&got)
	for sc.Scan() {
		num, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(num, "#") || wantLines[num] == digest {
			continue
		}
		if bad++; bad <= 10 {
			var trial int
			fmt.Sscanf(num, "%d", &trial)
			t.Errorf("trial %s diverges from the golden: %v", num, &cases[trial])
		}
	}
	t.Fatalf("%d of %d trials diverge from %s (set NEWTON_WRITE_GOLDEN=1 to regenerate after an intentional change)",
		bad, goldenTrials, path)
}
