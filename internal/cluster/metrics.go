package cluster

import (
	"fmt"
	"strings"

	"newton/internal/obs"
)

// Histogram records latency samples with exact (nearest-rank)
// percentiles, shared with the rest of the stack through internal/obs.
type Histogram = obs.ExactHistogram

// Metrics aggregates one stream's serving behaviour at either level of
// the fleet: per device (slice-level units) or fleet-wide (request
// units; see Result).
type Metrics struct {
	// Latency is arrival to completion: batch completion for a device,
	// slowest-slice completion plus reduction for a fleet-level split
	// request.
	Latency Histogram
	// QueueWait is arrival to batch launch (device level only).
	QueueWait Histogram
	// Service is batch launch to batch completion (device level only).
	Service Histogram
	// Batch is the per-launch batch-size distribution (device level
	// only; Batch.Count() == Launches).
	Batch Histogram

	// Arrived counts offered units; Served completed ones; Shed the
	// units dropped by admission control, failed fan-out, retry
	// exhaustion, or device death with no live sibling.
	Arrived, Served, Shed int64
	// Launches counts batch launches; Served/Launches is the achieved
	// mean batch size. The fleet Total sums the devices'.
	Launches int64
	// Retried counts launch re-runs after a detected READRES validation
	// failure (RetryPlan). The fleet Total sums the devices'.
	Retried int64
	// DrainedIn / DrainedOut count units this device received from (or
	// handed to) failover siblings when a device died. Per device,
	// Arrived + DrainedIn = Served + Shed + DrainedOut once the stream
	// drains; drained units are not re-counted as Arrived.
	DrainedIn, DrainedOut int64

	// PeakQueue is the deepest the queue got (fleet level: the deepest
	// any single device queue got).
	PeakQueue int64

	// FirstArrival and LastCompletion bound the run in virtual
	// nanoseconds.
	FirstArrival, LastCompletion float64
}

// MeanBatch returns the achieved mean batch size.
func (m *Metrics) MeanBatch() float64 {
	if m.Launches == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.Launches)
}

// ShedFraction returns the fraction of offered units dropped.
func (m *Metrics) ShedFraction() float64 {
	if m.Arrived == 0 {
		return 0
	}
	return float64(m.Shed) / float64(m.Arrived)
}

// Throughput returns served units per second of virtual time.
func (m *Metrics) Throughput() float64 {
	span := m.LastCompletion - m.FirstArrival
	if span <= 0 || m.Served == 0 {
		return 0
	}
	return float64(m.Served) / (span / 1e9)
}

// Summary renders the one-line report newton cluster prints per stream.
func (m *Metrics) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "served %d/%d (shed %.1f%%)  p50/p95/p99 %s / %s / %s  %.0f qps",
		m.Served, m.Arrived, 100*m.ShedFraction(),
		obs.FormatNs(m.Latency.P50()), obs.FormatNs(m.Latency.P95()), obs.FormatNs(m.Latency.P99()),
		m.Throughput())
	if m.DrainedIn > 0 || m.DrainedOut > 0 {
		fmt.Fprintf(&sb, "  drained %d in / %d out", m.DrainedIn, m.DrainedOut)
	}
	if m.Retried > 0 {
		fmt.Fprintf(&sb, "  retried %d", m.Retried)
	}
	return sb.String()
}
