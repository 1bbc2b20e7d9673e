package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"newton/internal/obs"
)

// routerTrack names the router's span track; every request's root span
// lives here, parenting the per-device queue/service spans.
const routerTrack = "router"

// pending is one queued unit of work on a device: a whole replicated
// request, or one slice of a row-split request.
type pending struct {
	// t is the request's original arrival time (latency is measured
	// from it, even after a failover drain).
	t float64
	// rt is the unit's ready time on its current device: t on admission,
	// the dead device's FailAt after a drain — a sibling cannot launch
	// work before it received it.
	rt    float64
	model int
	// req indexes the ordered request stream; slice is the row-slice
	// index for split requests, -1 for replicated ones.
	req   int
	slice int
}

// join tracks a row-split request's outstanding slices: the request
// completes ReduceNs after its slowest slice, or counts shed once if
// any slice was dropped.
type join struct {
	t         float64
	remaining int
	done      float64
	shed      bool
}

// devRun is one device's per-run state.
type devRun struct {
	// queue is the device's FIFO, a window onto buf's backing array:
	// launches pop its front by re-slicing, and push reuses the popped
	// front before growing the array.
	queue    []pending
	buf      []pending
	free     float64
	cold     bool
	dead     bool
	activeAt float64 // earliest allowed launch after an activation
	m        Metrics
	// rng draws the device's READRES validation outcomes (nil when its
	// RetryPlan never detects); detected counts detections so far.
	rng      *rand.Rand
	detected int64
}

// push appends p to the device queue. When the queue's window reaches
// the end of its backing array and at least as many slots lie popped
// before it as it holds, the window moves down to the array's start
// instead of growing the array: amortized O(1) per unit, and no
// allocation once the array fits the deepest queue.
func (dr *devRun) push(p pending) {
	if n := len(dr.queue); n == cap(dr.queue) {
		if front := cap(dr.buf) - cap(dr.queue); front > 0 && front >= n {
			dr.queue = dr.buf[:copy(dr.buf[:n], dr.queue)]
		} else {
			dr.queue = slices.Grow(dr.queue, 1)
			dr.buf = dr.queue[:0]
		}
	}
	dr.queue = append(dr.queue, p)
}

// run is one Replay's full state. The router is a single goroutine —
// routing decisions (least-loaded, autoscaling) read cross-device state,
// so the determinism contract is sequencing, not sharding.
type run struct {
	f        *Fleet
	opt      Options
	maxBatch int
	// now is the virtual time of the event being processed; no launch
	// happens before it.
	now  float64
	devs []devRun
	// launchAt and launchFull cache each device's next launch (see
	// refreshLaunch): device i launches at launchAt[i], or at
	// max(launchAt[i], now) when launchFull[i] says its head batch is
	// already full.
	launchAt   []float64
	launchFull []bool
	// nextFail indexes the first unprocessed entry of f.failOrder.
	nextFail int
	joins    map[int]*join
	spare    []*join      // finished joins, recycled by route
	batch    []pending    // compact-scan batch members, reused per launch
	targets  []int        // route's fan-out targets, reused per request
	spans    []obs.SpanID // per-request root span (tracer runs only)
	total    Metrics
	rs       RouterStats
	window   obs.ExactHistogram // the autoscaler's completion window
	queued   int64
	tr       *obs.Tracer
}

// Replay routes the request stream through the fleet and returns the
// per-device and fleet-level metrics. Every arrival time must be finite
// and non-negative, and every model placed; an error names the first
// request that is not. Requests are served in stable arrival-time
// order, so hand-built traces need not be pre-sorted: a stream already
// sorted by T is read in place, any other is copied and sorted, and the
// caller's slice is never written. Everything downstream is
// deterministic in virtual time.
func (f *Fleet) Replay(reqs []Request) (*Result, error) {
	sorted := true
	for i, q := range reqs {
		if !(q.T >= 0) || math.IsInf(q.T, 1) {
			return nil, fmt.Errorf("cluster: request %d has arrival time %g; need a finite time >= 0", i, q.T)
		}
		if _, ok := f.place[q.Model]; !ok {
			return nil, fmt.Errorf("cluster: request %d is for model %d, which no placement covers", i, q.Model)
		}
		if i > 0 && q.T < reqs[i-1].T {
			sorted = false
		}
	}
	ordered := reqs
	if !sorted {
		ordered = append([]Request(nil), reqs...)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].T < ordered[j].T })
	}

	r := &run{
		f:          f,
		opt:        f.opt,
		maxBatch:   f.opt.maxBatch(),
		devs:       make([]devRun, len(f.devices)),
		launchAt:   make([]float64, len(f.devices)),
		launchFull: make([]bool, len(f.devices)),
		joins:      make(map[int]*join),
		tr:         f.opt.Tracer,
	}
	r.total.FirstArrival = math.Inf(1)
	r.total.Latency.Grow(len(ordered))
	for i := range r.devs {
		r.devs[i].cold = f.devices[i].Standby
		r.devs[i].m.FirstArrival = math.Inf(1)
		if plan := &f.devices[i].Retry; plan.DetectedPerLaunch > 0 {
			r.devs[i].rng = rand.New(rand.NewSource(plan.Seed + int64(i)))
		}
		r.launchAt[i] = math.Inf(1)
	}
	if r.tr != nil {
		r.spans = make([]obs.SpanID, len(ordered))
	}

	// The event loop: each iteration processes the earliest of the next
	// device failure, the earliest device launch, and the next arrival.
	// Ties resolve failure -> launch -> arrival: a launch at a device's
	// FailAt never happens, and an arrival at FailAt is routed around
	// the dead device.
	i := 0
	for {
		lt, ld := r.nextLaunch()
		ft, fd := r.nextFailure()
		at := math.Inf(1)
		if i < len(ordered) {
			at = ordered[i].T
		}
		if math.IsInf(lt, 1) && math.IsInf(at, 1) {
			// No work left; failures past this point have nothing to
			// drain and nobody left to route around.
			break
		}
		switch {
		case fd >= 0 && ft <= lt && ft <= at:
			r.now = ft
			r.failDevice(fd)
		case ld >= 0 && lt <= at:
			r.now = lt
			r.launch(ld, lt)
		default:
			r.now = at
			r.route(ordered[i], i)
			i++
		}
	}

	for i := range r.devs {
		// Only a launch completing at +Inf leaves work queued: the
		// device never frees, so its queue neither launches nor drains.
		if n := len(r.devs[i].queue); n > 0 {
			return nil, fmt.Errorf("cluster: device %d (%s) ends the run with %d units queued behind a launch completing at %g: its launches sum past float64's range",
				i, f.devices[i].Name, n, r.devs[i].free)
		}
	}
	if math.IsInf(r.total.FirstArrival, 1) {
		r.total.FirstArrival = 0
	}
	res := &Result{Devices: make([]DeviceResult, len(r.devs)), Total: r.total, Router: r.rs}
	for i := range r.devs {
		dr := &r.devs[i]
		d := &f.devices[i]
		if math.IsInf(dr.m.FirstArrival, 1) {
			dr.m.FirstArrival = 0
		}
		health := Healthy
		switch {
		case dr.dead || (d.FailAt > 0 && d.FailAt <= res.Total.LastCompletion):
			health = Failed
		case dr.cold:
			health = Cold
		case d.Retry.degraded(dr.detected):
			health = Degraded
		}
		res.Devices[i] = DeviceResult{Name: d.Name, Backend: d.Backend.Name(), Health: health, Metrics: dr.m}
		res.Total.Launches += dr.m.Launches
		res.Total.Retried += dr.m.Retried
		if dr.m.PeakQueue > res.Total.PeakQueue {
			res.Total.PeakQueue = dr.m.PeakQueue
		}
	}
	publishRun(f.opt.Obs, f, res)
	return res, nil
}

// nextLaunch returns the earliest launch across devices (ties break to
// the lowest device index), or (+Inf, -1) when no device can launch.
func (r *run) nextLaunch() (float64, int) {
	best, bi := math.Inf(1), -1
	for i, t := range r.launchAt {
		if r.launchFull[i] {
			t = math.Max(t, r.now)
		}
		if t < best {
			best, bi = t, i
		}
	}
	return best, bi
}

// refreshLaunch recomputes device di's cached launch time from its
// state; every change to the device's queue, free, dead, cold or
// activeAt calls it, so picking the next launch never rescans a queue.
// The device launches as soon as it is free once the head model's batch
// is full, otherwise when the head's MaxWait coalescing deadline or the
// device-free time passes — and never before a warming device's
// activeAt.
//
// A full batch launches no earlier than the current event time, not at
// the instant it filled: a shed-oldest eviction can make a batch that
// filled earlier the head after the fact, and launching it at its fill
// time would start it before the eviction that exposed it. (A short
// batch's deadline is never in the past: its head would have launched.)
// So a full batch caches its base time and flag, and nextLaunch applies
// the event time.
func (r *run) refreshLaunch(di int) {
	dr := &r.devs[di]
	if dr.dead || dr.cold || len(dr.queue) == 0 {
		r.launchAt[di], r.launchFull[di] = math.Inf(1), false
		return
	}
	head := dr.queue[0]
	n := 0
	for _, p := range dr.queue {
		if p.model == head.model {
			if n++; n == r.maxBatch {
				break
			}
		}
	}
	full := n >= r.maxBatch
	at := dr.free
	if !full {
		at = math.Max(dr.free, head.rt+r.opt.MaxWait)
	}
	if dr.activeAt > at {
		at = dr.activeAt
	}
	r.launchAt[di], r.launchFull[di] = at, full
}

// nextFailure returns the earliest unprocessed device failure (ties
// break to the lowest device index), or (+Inf, -1).
func (r *run) nextFailure() (float64, int) {
	order := r.f.failOrder
	for r.nextFail < len(order) && r.devs[order[r.nextFail]].dead {
		r.nextFail++
	}
	if r.nextFail == len(order) {
		return math.Inf(1), -1
	}
	di := order[r.nextFail]
	return r.f.devices[di].FailAt, di
}

// route admits one arrival: fan a row-split request out to every slice
// device, or pick one live replica by policy. A request with no live
// target is shed at the router.
func (r *run) route(q Request, idx int) {
	r.total.Arrived++
	r.rs.Requests++
	if q.T < r.total.FirstArrival {
		r.total.FirstArrival = q.T
	}
	pl := r.f.place[q.Model]
	if len(pl.Slices) > 0 {
		// Resolve every slice target before admitting anything: a slice
		// with no live server sheds the whole request rather than
		// burning sibling devices on a fan-out that can never reduce.
		targets := r.targets[:0]
		for _, di := range pl.Slices {
			if r.devs[di].dead {
				di = r.drainTarget(di, q.Model, int64(idx))
			}
			if di < 0 || r.devs[di].dead || r.devs[di].cold {
				break
			}
			targets = append(targets, di)
		}
		r.targets = targets
		if len(targets) < len(pl.Slices) {
			r.total.Shed++
			if r.tr != nil {
				r.tr.Instant(routerTrack, "shed", q.T, 0,
					obs.Arg{Key: "model", Value: strconv.Itoa(q.Model)},
					obs.Arg{Key: "reason", Value: "no-live-slice"})
			}
			return
		}
		if r.tr != nil {
			r.spans[idx] = r.tr.Begin(routerTrack, "request", q.T, 0)
		}
		var j *join
		if n := len(r.spare); n > 0 {
			j, r.spare = r.spare[n-1], r.spare[:n-1]
		} else {
			j = new(join)
		}
		*j = join{t: q.T, remaining: len(targets), done: q.T}
		r.joins[idx] = j
		r.rs.Fanout += int64(len(targets))
		for si, di := range targets {
			r.admit(di, pending{t: q.T, rt: q.T, model: q.Model, req: idx, slice: si})
		}
	} else {
		di, preferred := r.pickReplica(pl, int64(idx))
		if di < 0 {
			// No live replica: walk the first replica's failover chain,
			// as a dead slice does.
			di, preferred = r.drainTarget(pl.Replicas[0], q.Model, int64(idx)), false
		}
		if di < 0 {
			r.total.Shed++
			if r.tr != nil {
				r.tr.Instant(routerTrack, "shed", q.T, 0,
					obs.Arg{Key: "model", Value: strconv.Itoa(q.Model)},
					obs.Arg{Key: "reason", Value: "no-live-replica"})
			}
			return
		}
		if !preferred {
			r.rs.Rerouted++
		}
		if r.tr != nil {
			r.spans[idx] = r.tr.Begin(routerTrack, "request", q.T, 0)
		}
		r.admit(di, pending{t: q.T, rt: q.T, model: q.Model, req: idx, slice: -1})
	}
	r.scaleOnQueue(q.T)
}

// pickReplica selects a live, non-cold replica by the routing policy;
// preferred reports whether the consistent-hash ring's first owner was
// chosen (always true for least-loaded).
func (r *run) pickReplica(pl Placement, key int64) (dev int, preferred bool) {
	live := func(di int) bool {
		d := &r.devs[di]
		return !d.dead && !d.cold
	}
	if r.opt.Policy == ConsistentHash {
		if rg := r.f.rings[pl.Model]; rg != nil {
			return rg.pick(key, live)
		}
	}
	best := -1
	for _, di := range pl.Replicas {
		if !live(di) {
			continue
		}
		if best < 0 {
			best = di
			continue
		}
		b, d := &r.devs[best], &r.devs[di]
		if len(d.queue) < len(b.queue) ||
			(len(d.queue) == len(b.queue) && d.free < b.free) {
			best = di
		}
	}
	return best, true
}

// admit applies device-level admission control to one unit.
func (r *run) admit(di int, p pending) {
	dr := &r.devs[di]
	dr.m.Arrived++
	if p.t < dr.m.FirstArrival {
		dr.m.FirstArrival = p.t
	}
	if r.opt.QueueDepth > 0 && len(dr.queue) >= r.opt.QueueDepth {
		var victim pending
		if r.opt.Shed == ShedOldest {
			victim = dr.queue[0]
			dr.queue = dr.queue[1:]
			dr.push(p)
			r.refreshLaunch(di)
		} else {
			victim = p
		}
		dr.m.Shed++
		if r.tr != nil {
			r.tr.Instant(r.f.devices[di].Name, "shed", p.rt, 0,
				obs.Arg{Key: "policy", Value: r.opt.Shed.String()})
		}
		r.fleetShed(victim, p.rt)
		return
	}
	dr.push(p)
	r.refreshLaunch(di)
	r.queued++
	if n := int64(len(dr.queue)); n > dr.m.PeakQueue {
		dr.m.PeakQueue = n
	}
}

// fleetShed records the fleet-level consequence of dropping one unit: a
// replicated request is shed outright; a slice marks its join so the
// request counts shed exactly once when the last slice resolves.
func (r *run) fleetShed(p pending, at float64) {
	if p.slice < 0 {
		r.total.Shed++
		if r.tr != nil && r.spans[p.req] != 0 {
			r.tr.Annotate(r.spans[p.req], "outcome", "shed")
			r.tr.End(r.spans[p.req], at)
		}
		return
	}
	j := r.joins[p.req]
	if j == nil {
		return
	}
	j.shed = true
	if at > j.done {
		j.done = at
	}
	j.remaining--
	if j.remaining == 0 {
		r.finishJoin(p.req, j)
	}
}

// launch coalesces up to MaxBatch queued units of the head's model
// (FIFO, leaving other models queued), prices the batch on the device's
// backend, and records per-unit and fleet-level completions.
func (r *run) launch(di int, at float64) {
	dr := &r.devs[di]
	head := dr.queue[0]

	// Fast path: the batch is a queue prefix (always true for a device
	// serving one model), popped by re-slicing; nothing pushes to this
	// queue before the members are consumed below. Otherwise copy the
	// members out to the run's scratch buffer and compact the rest in
	// place.
	k := 0
	for k < len(dr.queue) && k < r.maxBatch && dr.queue[k].model == head.model {
		k++
	}
	var members []pending
	if k == r.maxBatch || k == len(dr.queue) {
		members = dr.queue[:k:k]
		dr.queue = dr.queue[k:]
	} else {
		members = append(r.batch[:0], dr.queue[:k]...)
		rest := dr.queue[:0]
		for _, p := range dr.queue[k:] {
			if p.model == head.model && len(members) < r.maxBatch {
				members = append(members, p)
			} else {
				rest = append(rest, p)
			}
		}
		dr.queue = rest
		r.batch = members
	}
	r.queued -= int64(len(members))

	d := &r.f.devices[di]
	service := d.Backend.ServiceCycles(head.model, len(members))
	if d.Retry.degraded(dr.detected) && d.Retry.DegradedPenalty > 1 {
		service *= d.Retry.DegradedPenalty
	}
	// READRES validation: every attempt occupies the device; a batch
	// still failing after MaxRetries re-runs is shed.
	attempts, ok := d.Retry.attempts(dr.rng, &dr.detected)
	done := at + float64(attempts)*service
	dr.free = done
	r.refreshLaunch(di)
	dr.m.Launches++
	dr.m.Retried += int64(attempts - 1)
	dr.m.Batch.Record(float64(len(members)))
	if done > dr.m.LastCompletion {
		dr.m.LastCompletion = done
	}

	if r.tr != nil {
		args := []obs.Arg{
			{Key: "model", Value: strconv.Itoa(head.model)},
			{Key: "batch", Value: strconv.Itoa(len(members))},
		}
		if attempts > 1 {
			args = append(args, obs.Arg{Key: "attempts", Value: strconv.Itoa(attempts)})
		}
		r.tr.Span(d.Name, "batch", at, done, 0, args...)
	}
	for _, p := range members {
		if r.tr != nil {
			parent := r.spans[p.req]
			r.tr.Span(d.Name, "queue", p.t, at, parent)
			r.tr.Span(d.Name, "service", at, done, parent)
		}
		if !ok {
			dr.m.Shed++
			r.fleetShed(p, done)
			continue
		}
		dr.m.Served++
		dr.m.QueueWait.Record(at - p.t)
		dr.m.Service.Record(done - at)
		dr.m.Latency.Record(done - p.t)
		r.completeUnit(p, done)
	}
}

// completeUnit records a unit's fleet-level completion.
func (r *run) completeUnit(p pending, done float64) {
	if p.slice < 0 {
		r.total.Served++
		lat := done - p.t
		r.total.Latency.Record(lat)
		if done > r.total.LastCompletion {
			r.total.LastCompletion = done
		}
		if r.tr != nil && r.spans[p.req] != 0 {
			r.tr.End(r.spans[p.req], done)
		}
		r.onComplete(lat, done)
		return
	}
	j := r.joins[p.req]
	if j == nil {
		return
	}
	if done > j.done {
		j.done = done
	}
	j.remaining--
	if j.remaining == 0 {
		r.finishJoin(p.req, j)
	}
}

// finishJoin resolves a split request once its last slice lands: the
// router reduces the partial results (ReduceNs) and records the
// request-level latency, or counts the request shed exactly once.
func (r *run) finishJoin(idx int, j *join) {
	delete(r.joins, idx)
	r.spare = append(r.spare, j)
	span := obs.SpanID(0)
	if r.tr != nil {
		span = r.spans[idx]
	}
	if j.shed {
		r.total.Shed++
		if span != 0 {
			r.tr.Annotate(span, "outcome", "shed")
			r.tr.End(span, j.done)
		}
		return
	}
	fin := j.done + r.opt.ReduceNs
	r.total.Served++
	r.total.Latency.Record(fin - j.t)
	if fin > r.total.LastCompletion {
		r.total.LastCompletion = fin
	}
	if span != 0 {
		if r.opt.ReduceNs > 0 {
			r.tr.Span(routerTrack, "reduce", j.done, fin, span)
		}
		r.tr.End(span, fin)
	}
	r.onComplete(fin-j.t, fin)
}

// failDevice kills device di at its FailAt: launches stop, and every
// queued unit drains to its failover chain (or a live replica by
// policy) with the dead device's FailAt as its ready time — a sibling
// cannot serve work before it received it. Units with no live target
// are shed.
func (r *run) failDevice(di int) {
	dr := &r.devs[di]
	dr.dead = true
	at := r.f.devices[di].FailAt
	q := dr.queue
	dr.queue = nil
	r.refreshLaunch(di)
	if r.tr != nil {
		r.tr.Instant(r.f.devices[di].Name, "fail", at, 0,
			obs.Arg{Key: "drained", Value: strconv.Itoa(len(q))})
	}
	for _, p := range q {
		tgt := r.drainTarget(di, p.model, int64(p.req))
		if tgt < 0 {
			r.queued--
			dr.m.Shed++
			r.rs.DrainShed++
			r.fleetShed(p, at)
			continue
		}
		p.rt = at
		dr.m.DrainedOut++
		t := &r.devs[tgt]
		t.m.DrainedIn++
		t.push(p)
		r.refreshLaunch(tgt)
		if n := int64(len(t.queue)); n > t.m.PeakQueue {
			t.m.PeakQueue = n
		}
		r.rs.Drained++
	}
}

// drainTarget resolves where a dead device's work for a model goes:
// first along the device's failover chain (cycle-guarded, skipping
// dead, cold and incapable devices), then to a live replica by routing
// policy.
func (r *run) drainTarget(from, model int, key int64) int {
	for j, hops := r.f.failover[from], 0; j >= 0 && hops < len(r.devs); j, hops = r.f.failover[j], hops+1 {
		if j == from {
			break // chain closed a cycle back to the dead device
		}
		d := &r.devs[j]
		if !d.dead && !d.cold && r.f.serves(j, model) {
			return j
		}
	}
	pl, ok := r.f.place[model]
	if !ok || len(pl.Replicas) == 0 {
		return -1
	}
	dev, _ := r.pickReplica(pl, key)
	return dev
}

// serves reports whether device di lists the model.
func (f *Fleet) serves(di, model int) bool {
	for _, m := range f.devices[di].Models {
		if m == model {
			return true
		}
	}
	return false
}
