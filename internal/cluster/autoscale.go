package cluster

import (
	"math"

	"newton/internal/obs"
)

// onComplete feeds one finished request's latency to the autoscaler.
// Every Window completions the router takes the window's exact p99:
// above the SLO it activates one cold standby (first possible launch
// WarmupNs later); below half the SLO it re-idles one drained standby.
// Evaluating on completion keeps decisions a pure function of virtual
// time, so scaling is replayable. Without an SLO no window is kept.
func (r *run) onComplete(latency, at float64) {
	a := r.opt.Autoscale
	if a == nil || a.SLOP99Ns <= 0 {
		return
	}
	r.window.Record(latency)
	if r.window.Count() < a.window() {
		return
	}
	p99 := r.window.P99()
	r.window.Reset()
	switch {
	case p99 > a.SLOP99Ns:
		r.activateStandby(at, "p99-above-slo")
	case p99 < a.SLOP99Ns/2:
		r.idleStandby(at)
	}
}

// scaleOnQueue is the admission-time trigger: fleet-wide queued units
// past Autoscale.MaxQueue activate a standby immediately rather than
// waiting out a completion window.
func (r *run) scaleOnQueue(at float64) {
	a := r.opt.Autoscale
	if a == nil || a.MaxQueue <= 0 {
		return
	}
	if r.queued > a.MaxQueue {
		r.activateStandby(at, "queue-depth")
	}
}

// activateStandby warms up the lowest-indexed cold, living standby; it
// becomes routable immediately but cannot launch before at+WarmupNs.
func (r *run) activateStandby(at float64, reason string) {
	a := r.opt.Autoscale
	for i := range r.devs {
		d := &r.devs[i]
		if !d.cold || d.dead {
			continue
		}
		d.cold = false
		d.activeAt = at
		if a != nil && a.WarmupNs > 0 {
			d.activeAt = at + a.WarmupNs
		}
		r.refreshLaunch(i)
		r.rs.ScaleUps++
		if r.tr != nil {
			r.tr.Instant(routerTrack, "scale-up", at, 0,
				obs.Arg{Key: "device", Value: r.f.devices[i].Name},
				obs.Arg{Key: "reason", Value: reason})
		}
		return
	}
}

// idleStandby re-idles the highest-indexed activated standby that has
// fully drained (empty queue, no batch in flight). Only devices marked
// Standby in the fleet description ever go cold again.
func (r *run) idleStandby(at float64) {
	for i := len(r.devs) - 1; i >= 0; i-- {
		d := &r.devs[i]
		if !r.f.devices[i].Standby || d.cold || d.dead {
			continue
		}
		if len(d.queue) > 0 || d.free > at {
			continue
		}
		d.cold = true
		d.activeAt = math.Inf(1)
		r.refreshLaunch(i)
		r.rs.ScaleDowns++
		if r.tr != nil {
			r.tr.Instant(routerTrack, "scale-down", at, 0,
				obs.Arg{Key: "device", Value: r.f.devices[i].Name})
		}
		return
	}
}
