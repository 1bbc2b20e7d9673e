package cluster

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"newton/internal/obs"
)

// flatBackend serves every batch of every model in a fixed time —
// hand-computable schedules for the router tests.
type flatBackend struct {
	name    string
	service float64
}

func (b *flatBackend) Name() string                           { return b.name }
func (b *flatBackend) ServiceCycles(model, batch int) float64 { return b.service }

func flat(service float64) *flatBackend { return &flatBackend{name: "flat", service: service} }

func reqs(model int, times ...float64) []Request {
	out := make([]Request, len(times))
	for i, t := range times {
		out[i] = Request{T: t, Model: model}
	}
	return out
}

func mustFleet(t *testing.T, devices []Device, placements []Placement, opt Options) *Fleet {
	t.Helper()
	f, err := New(devices, placements, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	b := flat(100)
	cases := []struct {
		name       string
		devices    []Device
		placements []Placement
	}{
		{"no devices", nil, nil},
		{"no backend", []Device{{Name: "a"}}, nil},
		{"dup name", []Device{{Name: "a", Backend: b}, {Name: "a", Backend: b}}, nil},
		{"model placed twice",
			[]Device{{Backend: b, Models: []int{0}}},
			[]Placement{{Model: 0, Replicas: []int{0}}, {Model: 0, Replicas: []int{0}}}},
		{"replicas and slices",
			[]Device{{Backend: b, Models: []int{0}}, {Backend: b, Models: []int{0}}},
			[]Placement{{Model: 0, Replicas: []int{0}, Slices: []int{0, 1}}}},
		{"neither replicas nor slices",
			[]Device{{Backend: b, Models: []int{0}}},
			[]Placement{{Model: 0}}},
		{"single slice",
			[]Device{{Backend: b, Models: []int{0}}},
			[]Placement{{Model: 0, Slices: []int{0}}}},
		{"device out of range",
			[]Device{{Backend: b, Models: []int{0}}},
			[]Placement{{Model: 0, Replicas: []int{1}}}},
		{"device repeated",
			[]Device{{Backend: b, Models: []int{0}}},
			[]Placement{{Model: 0, Replicas: []int{0, 0}}}},
		{"device lacks model",
			[]Device{{Backend: b, Models: []int{1}}},
			[]Placement{{Model: 0, Replicas: []int{0}}}},
		{"standby slice",
			[]Device{{Backend: b, Models: []int{0}}, {Backend: b, Models: []int{0}, Standby: true}},
			[]Placement{{Model: 0, Slices: []int{0, 1}}}},
		{"unknown failover",
			[]Device{{Backend: b, Models: []int{0}, FailoverTo: "ghost"}},
			[]Placement{{Model: 0, Replicas: []int{0}}}},
		{"self failover",
			[]Device{{Name: "a", Backend: b, Models: []int{0}, FailoverTo: "a"}},
			[]Placement{{Model: 0, Replicas: []int{0}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.devices, tc.placements, Options{}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}

	// Times the router would otherwise turn into silently wrong numbers
	// (a negative or NaN latency, a vanished request, a device that
	// never dies), and retry and autoscale settings that would lose
	// requests or do nothing: the error names the field, and the device.
	pl := []Placement{{Model: 0, Replicas: []int{0}}}
	nan, inf := math.NaN(), math.Inf(1)
	scale := func(a Autoscale) Options { return Options{Autoscale: &a} }
	for _, tc := range []struct {
		name   string
		opt    Options
		failAt float64
		retry  RetryPlan
		want   string
	}{
		{"negative ReduceNs", Options{ReduceNs: -500}, 0, RetryPlan{}, "Options.ReduceNs"},
		{"NaN ReduceNs", Options{ReduceNs: nan}, 0, RetryPlan{}, "Options.ReduceNs"},
		{"infinite ReduceNs", Options{ReduceNs: inf}, 0, RetryPlan{}, "Options.ReduceNs"},
		{"NaN MaxWait", Options{MaxWait: nan}, 0, RetryPlan{}, "Options.MaxWait"},
		{"negative MaxWait", Options{MaxWait: -1}, 0, RetryPlan{}, "Options.MaxWait"},
		{"infinite MaxWait", Options{MaxWait: inf}, 0, RetryPlan{}, "Options.MaxWait"},
		{"NaN FailAt", Options{}, nan, RetryPlan{}, "device 0 (d) has FailAt"},
		{"negative FailAt", Options{}, -5, RetryPlan{}, "device 0 (d) has FailAt"},
		{"detection above 1", Options{}, 0, RetryPlan{DetectedPerLaunch: 2}, "device 0 (d) has Retry.DetectedPerLaunch"},
		{"NaN detection", Options{}, 0, RetryPlan{DetectedPerLaunch: nan}, "device 0 (d) has Retry.DetectedPerLaunch"},
		{"negative detection", Options{}, 0, RetryPlan{DetectedPerLaunch: -0.1}, "device 0 (d) has Retry.DetectedPerLaunch"},
		{"negative MaxRetries", Options{}, 0, RetryPlan{MaxRetries: -1}, "device 0 (d) has Retry.MaxRetries"},
		{"negative DegradeAfter", Options{}, 0, RetryPlan{DegradeAfter: -1}, "device 0 (d) has Retry.DegradeAfter"},
		{"infinite penalty", Options{}, 0, RetryPlan{DegradedPenalty: inf}, "device 0 (d) has Retry.DegradedPenalty"},
		{"NaN penalty", Options{}, 0, RetryPlan{DegradedPenalty: nan}, "device 0 (d) has Retry.DegradedPenalty"},
		{"overflowing penalty", Options{}, 0, RetryPlan{DetectedPerLaunch: 0.5, MaxRetries: 1, DegradeAfter: 1, DegradedPenalty: 1e308},
			"device 0 (d) has Retry.DegradedPenalty"},
		{"penalty overflowing over retries", Options{}, 0, RetryPlan{MaxRetries: 1, DegradeAfter: 1, DegradedPenalty: 1e306},
			"device 0 (d) has Retry.DegradedPenalty"},
		{"NaN SLO", scale(Autoscale{SLOP99Ns: nan}), 0, RetryPlan{}, "Options.Autoscale.SLOP99Ns"},
		{"negative SLO", scale(Autoscale{SLOP99Ns: -5}), 0, RetryPlan{}, "Options.Autoscale.SLOP99Ns"},
		{"infinite SLO", scale(Autoscale{SLOP99Ns: inf}), 0, RetryPlan{}, "Options.Autoscale.SLOP99Ns"},
		{"infinite warm-up", scale(Autoscale{MaxQueue: 2, WarmupNs: inf}), 0, RetryPlan{}, "Options.Autoscale.WarmupNs"},
		{"NaN warm-up", scale(Autoscale{WarmupNs: nan}), 0, RetryPlan{}, "Options.Autoscale.WarmupNs"},
		{"negative warm-up", scale(Autoscale{WarmupNs: -5}), 0, RetryPlan{}, "Options.Autoscale.WarmupNs"},
		{"negative MaxQueue", scale(Autoscale{MaxQueue: -1}), 0, RetryPlan{}, "Options.Autoscale.MaxQueue"},
		{"negative Window", scale(Autoscale{Window: -1}), 0, RetryPlan{}, "Options.Autoscale.Window"},
	} {
		d := []Device{{Name: "d", Backend: b, Models: []int{0}, FailAt: tc.failAt, Retry: tc.retry}}
		_, err := New(d, pl, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	// A finite penalty <= 1 still means "no penalty", and the range ends
	// are legal.
	mustFleet(t, []Device{{Backend: b, Models: []int{0},
		Retry: RetryPlan{DetectedPerLaunch: 1, DegradedPenalty: -3}}}, pl, scale(Autoscale{}))
	// The bound covers every batch size up to MaxBatch: here only batch
	// 4 overflows.
	grow := []Device{{Name: "d", Backend: &shapeBackend{base: []float64{0}, per: 50}, Models: []int{0},
		Retry: RetryPlan{DegradeAfter: 1, DegradedPenalty: 1e306}}}
	if _, err := New(grow, pl, Options{MaxBatch: 4}); err == nil || !strings.Contains(err.Error(), "degraded batch-4 launch") {
		t.Errorf("penalty overflowing at batch 4: error %v", err)
	}
	// A large penalty whose degraded launches stay finite still accounts
	// for every request.
	f := mustFleet(t, []Device{{Backend: b, Models: []int{0},
		Retry: RetryPlan{DetectedPerLaunch: 0.5, MaxRetries: 1, DegradeAfter: 1, DegradedPenalty: 1e300}}}, pl, Options{})
	arrivals := make([]float64, 500)
	for i := range arrivals {
		arrivals[i] = float64(i) * 1e4
	}
	res, err := f.Replay(reqs(0, arrivals...))
	if err != nil {
		t.Fatal(err)
	}
	if tot := res.Total; tot.Served+tot.Shed != tot.Arrived || tot.Arrived != 500 {
		t.Errorf("penalty 1e300: %d arrived, %d served, %d shed", tot.Arrived, tot.Served, tot.Shed)
	}
	// One that passes New, but whose degraded launches sum past
	// float64's range within the run, fails the replay by name.
	f = mustFleet(t, []Device{{Name: "d", Backend: b, Models: []int{0},
		Retry: RetryPlan{DetectedPerLaunch: 0.5, MaxRetries: 1, DegradeAfter: 1, DegradedPenalty: 5e305}}}, pl, Options{})
	if _, err := f.Replay(reqs(0, arrivals...)); err == nil || !strings.Contains(err.Error(), "device 0 (d) ends the run with") {
		t.Errorf("penalty 5e305: replay error %v", err)
	}
	// +Inf FailAt still means "never".
	f = mustFleet(t, []Device{{Name: "d", Backend: b, Models: []int{0}, FailAt: math.Inf(1)}}, pl, Options{})
	res, err = f.Replay(reqs(0, 0, 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Served != 2 || res.Devices[0].Health != Healthy {
		t.Errorf("FailAt +Inf: served %d, health %v; want 2, healthy", res.Total.Served, res.Devices[0].Health)
	}
}

func TestReplayRejectsBadStreams(t *testing.T) {
	f := mustFleet(t,
		[]Device{{Backend: flat(100), Models: []int{0}}},
		[]Placement{{Model: 0, Replicas: []int{0}}}, Options{})
	if _, err := f.Replay(reqs(0, -1)); err == nil {
		t.Error("negative arrival time accepted")
	}
	if _, err := f.Replay(reqs(7, 0)); err == nil {
		t.Error("unplaced model accepted")
	}
}

// Two idle replicas, batch-1, zero wait, 100 ns service: four arrivals
// at t=0 alternate devices (least-loaded ties break by free time then
// index), so each device serves one at latency 100 and one at 200.
func TestLeastLoadedHandComputed(t *testing.T) {
	f := mustFleet(t,
		[]Device{
			{Backend: flat(100), Models: []int{0}},
			{Backend: flat(100), Models: []int{0}},
		},
		[]Placement{{Model: 0, Replicas: []int{0, 1}}},
		Options{MaxBatch: 1})
	res, err := f.Replay(reqs(0, 0, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Served != 4 || res.Total.Shed != 0 {
		t.Fatalf("served %d shed %d, want 4/0", res.Total.Served, res.Total.Shed)
	}
	for i, dr := range res.Devices {
		if dr.Metrics.Served != 2 {
			t.Errorf("device %d served %d, want 2", i, dr.Metrics.Served)
		}
	}
	if got := res.Total.Latency.P50(); got != 100 {
		t.Errorf("p50 %g, want 100", got)
	}
	if got := res.Total.Latency.Max(); got != 200 {
		t.Errorf("max latency %g, want 200", got)
	}
	if res.Total.LastCompletion != 200 {
		t.Errorf("last completion %g, want 200", res.Total.LastCompletion)
	}
}

// One device, MaxBatch 4, MaxWait 50: four arrivals by t=30 coalesce
// into one full batch launching at the fourth arrival; two stragglers
// later form a partial batch that waits out MaxWait.
func TestContinuousBatching(t *testing.T) {
	f := mustFleet(t,
		[]Device{{Backend: flat(100), Models: []int{0}}},
		[]Placement{{Model: 0, Replicas: []int{0}}},
		Options{MaxBatch: 4, MaxWait: 50})
	res, err := f.Replay(reqs(0, 0, 10, 20, 30, 500, 510))
	if err != nil {
		t.Fatal(err)
	}
	m := &res.Devices[0].Metrics
	if m.Launches != 2 {
		t.Fatalf("launches %d, want 2", m.Launches)
	}
	if got := m.Batch.Max(); got != 4 {
		t.Errorf("max batch %g, want 4", got)
	}
	// Full batch: launch at t=30 (fourth arrival), done at 130; the
	// head waited 30 ns.
	if got := m.QueueWait.Max(); got != 50 {
		t.Errorf("max queue wait %g, want 50 (straggler head waits out MaxWait)", got)
	}
	if got := m.Latency.Max(); got != 150 {
		t.Errorf("max latency %g, want 150 (t=500 head: launch 550, done 650)", got)
	}
	if res.Total.Served != 6 {
		t.Errorf("served %d, want 6", res.Total.Served)
	}
}

// A row-split model fans every request out to both slices and reduces:
// latency = slowest slice + ReduceNs, counted once at fleet level.
func TestSplitJoinReduce(t *testing.T) {
	f := mustFleet(t,
		[]Device{
			{Backend: flat(100), Models: []int{0}},
			{Backend: flat(150), Models: []int{0}},
		},
		[]Placement{{Model: 0, Slices: []int{0, 1}}},
		Options{MaxBatch: 1, ReduceNs: 25})
	res, err := f.Replay(reqs(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Arrived != 1 || res.Total.Served != 1 {
		t.Fatalf("fleet arrived/served %d/%d, want 1/1", res.Total.Arrived, res.Total.Served)
	}
	if got := res.Total.Latency.Max(); got != 175 {
		t.Errorf("latency %g, want 175 (slowest slice 150 + reduce 25)", got)
	}
	if res.Router.Fanout != 2 {
		t.Errorf("fanout %d, want 2", res.Router.Fanout)
	}
	for i, dr := range res.Devices {
		if dr.Metrics.Served != 1 {
			t.Errorf("slice %d served %d, want 1", i, dr.Metrics.Served)
		}
	}
	if res.Total.LastCompletion != 175 {
		t.Errorf("last completion %g, want 175", res.Total.LastCompletion)
	}
}

// Bounded queues shed: with depth 1 and a slow device, ShedNewest drops
// arrivals while ShedOldest drops the waiting head.
func TestQueueDepthShedPolicies(t *testing.T) {
	build := func(shed ShedPolicy) *Result {
		f := mustFleet(t,
			[]Device{{Backend: flat(1000), Models: []int{0}}},
			[]Placement{{Model: 0, Replicas: []int{0}}},
			Options{MaxBatch: 1, QueueDepth: 1, Shed: shed})
		res, err := f.Replay(reqs(0, 0, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	newest := build(ShedNewest)
	if newest.Total.Served != 2 || newest.Total.Shed != 1 {
		t.Fatalf("shed-newest served/shed %d/%d, want 2/1", newest.Total.Served, newest.Total.Shed)
	}
	// t=0 launches immediately, t=1 queues, t=2 is rejected: the queued
	// request is the old one, latency 2000-1=1999.
	if got := newest.Total.Latency.Max(); got != 1999 {
		t.Errorf("shed-newest max latency %g, want 1999", got)
	}

	oldest := build(ShedOldest)
	if oldest.Total.Served != 2 || oldest.Total.Shed != 1 {
		t.Fatalf("shed-oldest served/shed %d/%d, want 2/1", oldest.Total.Served, oldest.Total.Shed)
	}
	// t=1 is evicted by t=2: the survivor's latency is 2000-2=1998.
	if got := oldest.Total.Latency.Max(); got != 1998 {
		t.Errorf("shed-oldest max latency %g, want 1998", got)
	}
}

// Consistent hashing must be stable (same key, same owner) and reroute
// keys off a dead owner without touching other keys' owners.
func TestConsistentHashRouting(t *testing.T) {
	devices := []Device{
		{Name: "a", Backend: flat(10), Models: []int{0}},
		{Name: "b", Backend: flat(10), Models: []int{0}},
		{Name: "c", Backend: flat(10), Models: []int{0}},
	}
	r := newRing(devices, []int{0, 1, 2})
	allLive := func(int) bool { return true }
	owner := make(map[int64]int)
	counts := make(map[int]int)
	for k := int64(0); k < 300; k++ {
		d, pref := r.pick(k, allLive)
		if !pref {
			t.Fatalf("key %d: all-live pick not preferred", k)
		}
		owner[k] = d
		counts[d]++
	}
	for d := 0; d < 3; d++ {
		if counts[d] == 0 {
			t.Errorf("device %d owns no keys out of 300", d)
		}
	}
	dead := 0
	for k := int64(0); k < 300; k++ {
		d, pref := r.pick(k, func(di int) bool { return di != dead })
		if owner[k] == dead {
			if d == dead || pref {
				t.Fatalf("key %d stayed on dead owner (dev %d, preferred %v)", k, d, pref)
			}
		} else if d != owner[k] || !pref {
			t.Fatalf("key %d moved from live owner %d to %d", k, owner[k], d)
		}
	}
	if d, _ := r.pick(1, func(int) bool { return false }); d != -1 {
		t.Errorf("all-dead pick returned %d, want -1", d)
	}
}

// A device that dies mid-run stops launching, drains its queue along
// the failover chain, and later arrivals route around it. Latency is
// still measured from the original arrival.
func TestFailoverDrainToSibling(t *testing.T) {
	f := mustFleet(t,
		[]Device{
			{Name: "prim", Backend: flat(100), Models: []int{0}, FailAt: 75, FailoverTo: "sib"},
			{Name: "sib", Backend: flat(100), Models: []int{0}},
		},
		[]Placement{{Model: 0, Replicas: []int{0}}},
		Options{MaxBatch: 1})
	res, err := f.Replay(reqs(0, 0, 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	prim, sib := &res.Devices[0], &res.Devices[1]
	if prim.Health != Failed {
		t.Errorf("primary health %v, want failed", prim.Health)
	}
	if prim.Metrics.Served != 1 || prim.Metrics.DrainedOut != 2 {
		t.Errorf("primary served/drained-out %d/%d, want 1/2",
			prim.Metrics.Served, prim.Metrics.DrainedOut)
	}
	if sib.Metrics.DrainedIn != 2 || sib.Metrics.Served != 2 {
		t.Errorf("sibling drained-in/served %d/%d, want 2/2",
			sib.Metrics.DrainedIn, sib.Metrics.Served)
	}
	if res.Total.Served != 3 || res.Total.Shed != 0 {
		t.Fatalf("fleet served/shed %d/%d, want 3/0 (no accepted request dropped)",
			res.Total.Served, res.Total.Shed)
	}
	// Drained work cannot start before the failure: t=10 relaunches on
	// the sibling at 75, completing at 175 -> latency 165; t=20 queues
	// behind it, completing at 275 -> latency 255.
	if got := res.Total.Latency.Max(); got != 255 {
		t.Errorf("max latency %g, want 255", got)
	}
	if res.Router.Drained != 2 || res.Router.DrainShed != 0 {
		t.Errorf("router drained/shed %d/%d, want 2/0", res.Router.Drained, res.Router.DrainShed)
	}
	// Per-device conservation: Arrived + DrainedIn = Served + Shed + DrainedOut.
	for i, dr := range res.Devices {
		m := &dr.Metrics
		if m.Arrived+m.DrainedIn != m.Served+m.Shed+m.DrainedOut {
			t.Errorf("device %d leaks units: arrived %d + in %d != served %d + shed %d + out %d",
				i, m.Arrived, m.DrainedIn, m.Served, m.Shed, m.DrainedOut)
		}
	}
}

// The chain walk must survive a failover cycle: with every chain member
// dead and no live replica, drained work is shed rather than looping.
func TestFailoverCycleGuard(t *testing.T) {
	f := mustFleet(t,
		[]Device{
			{Name: "a", Backend: flat(1000), Models: []int{0}, FailAt: 50, FailoverTo: "b"},
			{Name: "b", Backend: flat(1000), Models: []int{0}, FailAt: 60, FailoverTo: "a"},
		},
		[]Placement{{Model: 0, Replicas: []int{0, 1}}},
		Options{MaxBatch: 1})
	// Both replicas take one launch plus one queued request each; all
	// four are accepted before the first failure.
	res, err := f.Replay(reqs(0, 0, 0, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	// a dies at 50: its queued unit drains to b. b dies at 60: both its
	// queued units walk b -> a (dead) -> cycle guard stops -> no live
	// replica -> shed. In-flight batches complete.
	if res.Total.Served != 2 {
		t.Errorf("served %d, want 2 (the two in-flight launches)", res.Total.Served)
	}
	if res.Total.Shed != 2 {
		t.Errorf("shed %d, want 2 (cycle guard ends the walk)", res.Total.Shed)
	}
	if res.Router.DrainShed != 2 {
		t.Errorf("drain-shed %d, want 2", res.Router.DrainShed)
	}
	if res.Router.Drained != 1 {
		t.Errorf("drained %d, want 1 (a's unit moved to b before b died)", res.Router.Drained)
	}
	for _, dr := range res.Devices {
		if dr.Health != Failed {
			t.Errorf("device %s health %v, want failed", dr.Name, dr.Health)
		}
	}
}

// An arrival at a dead slice device sheds the whole split request, but
// a chain target keeps the fan-out alive.
func TestSplitSliceFailover(t *testing.T) {
	res := func(failover string) *Result {
		f := mustFleet(t,
			[]Device{
				{Name: "s0", Backend: flat(100), Models: []int{0}, FailAt: 50, FailoverTo: failover},
				{Name: "s1", Backend: flat(100), Models: []int{0}},
				{Name: "spare", Backend: flat(100), Models: []int{0}},
			},
			[]Placement{{Model: 0, Slices: []int{0, 1}}},
			Options{MaxBatch: 1, ReduceNs: 10})
		r, err := f.Replay(reqs(0, 0, 100))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// No chain: the t=100 arrival finds slice 0 dead -> whole request
	// shed; slice 1 never sees it.
	plain := res("")
	if plain.Total.Served != 1 || plain.Total.Shed != 1 {
		t.Errorf("no-chain served/shed %d/%d, want 1/1", plain.Total.Served, plain.Total.Shed)
	}
	if got := plain.Devices[1].Metrics.Arrived; got != 1 {
		t.Errorf("no-chain: surviving slice admitted %d units, want 1 (no one-legged fan-out)", got)
	}

	// Chain to the spare: the t=100 arrival's slice 0 lands there.
	chained := res("spare")
	if chained.Total.Served != 2 || chained.Total.Shed != 0 {
		t.Errorf("chained served/shed %d/%d, want 2/0", chained.Total.Served, chained.Total.Shed)
	}
	if got := chained.Devices[2].Metrics.Served; got != 1 {
		t.Errorf("spare served %d slice units, want 1", got)
	}
}

// The autoscaler activates a cold standby when the window p99 blows the
// SLO, honours the warm-up delay, and re-idles it when load drops.
func TestAutoscale(t *testing.T) {
	f := mustFleet(t,
		[]Device{
			{Name: "hot", Backend: flat(1000), Models: []int{0}},
			{Name: "spare", Backend: flat(1000), Models: []int{0}, Standby: true},
		},
		[]Placement{{Model: 0, Replicas: []int{0, 1}}},
		Options{MaxBatch: 1, Autoscale: &Autoscale{SLOP99Ns: 1500, WarmupNs: 100, Window: 4}})

	// Four back-to-back arrivals pile onto the only hot device: window
	// p99 is 4000 ns >> SLO, so the standby activates; later arrivals
	// then spread across both devices.
	var stream []Request
	stream = append(stream, reqs(0, 0, 0, 0, 0)...)
	for i := 0; i < 8; i++ {
		stream = append(stream, Request{T: 5000 + float64(i), Model: 0})
	}
	res, err := f.Replay(stream)
	if err != nil {
		t.Fatal(err)
	}
	if res.Router.ScaleUps == 0 {
		t.Fatal("no scale-up despite p99 >> SLO")
	}
	if got := res.Devices[1].Metrics.Served; got == 0 {
		t.Error("activated standby served nothing")
	}
	if res.Total.Served != int64(len(stream)) {
		t.Errorf("served %d, want %d", res.Total.Served, len(stream))
	}

	// With a generous SLO nothing scales and the standby stays cold.
	f2 := mustFleet(t,
		[]Device{
			{Name: "hot", Backend: flat(10), Models: []int{0}},
			{Name: "spare", Backend: flat(10), Models: []int{0}, Standby: true},
		},
		[]Placement{{Model: 0, Replicas: []int{0, 1}}},
		Options{MaxBatch: 1, Autoscale: &Autoscale{SLOP99Ns: 1e9, Window: 4}})
	res2, err := f2.Replay(reqs(0, 0, 100, 200, 300, 400, 500, 600, 700))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Devices[1].Health != Cold {
		t.Errorf("idle standby health %v, want cold", res2.Devices[1].Health)
	}
	if res2.Devices[1].Metrics.Served != 0 {
		t.Errorf("cold standby served %d", res2.Devices[1].Metrics.Served)
	}
}

// The queue-depth trigger activates a standby without waiting for a
// completion window.
func TestAutoscaleQueueTrigger(t *testing.T) {
	f := mustFleet(t,
		[]Device{
			{Name: "hot", Backend: flat(1000), Models: []int{0}},
			{Name: "spare", Backend: flat(1000), Models: []int{0}, Standby: true},
		},
		[]Placement{{Model: 0, Replicas: []int{0, 1}}},
		Options{MaxBatch: 1, Autoscale: &Autoscale{MaxQueue: 2, Window: 1 << 20}})
	res, err := f.Replay(reqs(0, 0, 1, 2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Router.ScaleUps != 1 {
		t.Errorf("scale-ups %d, want 1", res.Router.ScaleUps)
	}
	if res.Devices[1].Metrics.Served == 0 {
		t.Error("queue-triggered standby served nothing")
	}
}

// syntheticStream mixes two models with deterministic arithmetic
// arrivals — no RNG, so the stream itself cannot mask nondeterminism.
func syntheticStream(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{T: float64(i%97) * 13.5, Model: i % 2}
	}
	return out
}

func demoFleet(opt Options) ([]Device, []Placement) {
	devices := []Device{
		{Name: "newton-0", Backend: flat(120), Models: []int{0}, FailoverTo: "newton-1"},
		{Name: "newton-1", Backend: flat(120), Models: []int{0}, FailoverTo: "newton-0", FailAt: 400},
		{Name: "newton-2", Backend: flat(90), Models: []int{1}},
		{Name: "newton-3", Backend: flat(95), Models: []int{1}},
		{Name: "newton-4", Backend: flat(120), Models: []int{0}, Standby: true},
	}
	placements := []Placement{
		{Model: 0, Replicas: []int{0, 1, 4}},
		{Model: 1, Slices: []int{2, 3}},
	}
	return devices, placements
}

// Same fleet + same stream => byte-identical Prometheus exposition and
// span stream, across routing policies and with faults and autoscaling
// in play. make check runs this under -race.
func TestClusterDeterminism(t *testing.T) {
	for _, policy := range []RoutePolicy{LeastLoaded, ConsistentHash} {
		run := func() (string, int) {
			reg := obs.New()
			tracer := &obs.Tracer{}
			opt := Options{
				MaxBatch: 4, MaxWait: 30, QueueDepth: 64, Policy: policy,
				ReduceNs:  15,
				Autoscale: &Autoscale{SLOP99Ns: 2000, WarmupNs: 50, Window: 32},
				Obs:       reg, Tracer: tracer,
			}
			devices, placements := demoFleet(opt)
			f, err := New(devices, placements, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Replay(syntheticStream(4000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Total.Served == 0 {
				t.Fatal("nothing served")
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String(), tracer.Len()
		}
		a, aspans := run()
		b, bspans := run()
		if a != b {
			t.Fatalf("policy %v: expositions differ:\n%s", policy, firstDiff(a, b))
		}
		if aspans != bspans {
			t.Fatalf("policy %v: span counts differ: %d vs %d", policy, aspans, bspans)
		}
		if !strings.Contains(a, `device="newton-2"`) {
			t.Fatalf("policy %v: exposition lacks per-device labels:\n%.400s", policy, a)
		}
	}
}

// Drain accounting is deterministic under -race: two concurrent fleets
// with a mid-run device kill produce byte-identical metrics.
func TestDrainByteIdenticalRace(t *testing.T) {
	run := func() string {
		reg := obs.New()
		opt := Options{MaxBatch: 2, MaxWait: 20, Policy: LeastLoaded, ReduceNs: 15, Obs: reg}
		devices, placements := demoFleet(opt)
		f, err := New(devices, placements, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Replay(syntheticStream(3000))
		if err != nil {
			t.Fatal(err)
		}
		if res.Devices[1].Metrics.DrainedOut == 0 {
			t.Error("kill at t=400 drained nothing")
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() { out <- run() }()
	}
	a, b := <-out, <-out
	if a != b {
		t.Fatalf("concurrent drain runs differ:\n%s", firstDiff(a, b))
	}
}

// The router span is the parent of every per-device span a request
// touched.
func TestRouterSpanParentage(t *testing.T) {
	tracer := &obs.Tracer{}
	f := mustFleet(t,
		[]Device{
			{Name: "s0", Backend: flat(100), Models: []int{0}},
			{Name: "s1", Backend: flat(150), Models: []int{0}},
		},
		[]Placement{{Model: 0, Slices: []int{0, 1}}},
		Options{MaxBatch: 1, ReduceNs: 25, Tracer: tracer})
	if _, err := f.Replay(reqs(0, 0)); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Spans()
	var root obs.SpanID
	for _, s := range spans {
		if s.Track == routerTrack && s.Name == "request" {
			root = s.ID
		}
	}
	if root == 0 {
		t.Fatal("no router request span")
	}
	deviceChildren := 0
	for _, s := range spans {
		if (s.Track == "s0" || s.Track == "s1") && s.Parent == root {
			deviceChildren++
		}
	}
	// Two slices x (queue + service).
	if deviceChildren != 4 {
		t.Errorf("router span has %d device children, want 4", deviceChildren)
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
