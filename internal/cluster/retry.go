package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// RetryPlan models host-side READRES result validation on one device.
// Newton's READRES stream bypasses controller ECC (paper §III-E), so a
// production fleet checksums the result latches and re-executes launches
// that fail validation. The zero value never detects a failure.
type RetryPlan struct {
	// Seed drives the device's validation draws: the device at fleet
	// index i draws from its own source seeded Seed+i, one draw per
	// launch attempt in launch order, so a (fleet, stream) pair replays
	// identically.
	Seed int64
	// DetectedPerLaunch is the probability that a launch attempt's
	// validation detects a corrupted result, forcing a re-run.
	DetectedPerLaunch float64
	// MaxRetries bounds re-runs per launch. A launch still failing after
	// MaxRetries re-runs sheds its whole batch; the device is busy for
	// every attempt either way.
	MaxRetries int
	// DegradeAfter moves the device to Degraded health after this many
	// detected failures (0 = never degrade): the operational signal that
	// it needs scrubbing or replacement.
	DegradeAfter int64
	// DegradedPenalty multiplies service times while Degraded (recovery
	// scrubs interleave with serving). Values <= 1 mean no penalty.
	DegradedPenalty float64
}

// check rejects a plan that would lose requests or do nothing on a
// device pricing its models' launches on b, in batches of up to
// maxBatch. It names the field; New adds the device.
func (p *RetryPlan) check(b Backend, models []int, maxBatch int) error {
	switch {
	case !(p.DetectedPerLaunch >= 0 && p.DetectedPerLaunch <= 1):
		return fmt.Errorf("Retry.DetectedPerLaunch %g; need a probability in [0, 1]", p.DetectedPerLaunch)
	case p.MaxRetries < 0:
		return fmt.Errorf("Retry.MaxRetries %d; need 0 or more", p.MaxRetries)
	case p.DegradeAfter < 0:
		return fmt.Errorf("Retry.DegradeAfter %d; need 0 (never) or more", p.DegradeAfter)
	case math.IsNaN(p.DegradedPenalty) || math.IsInf(p.DegradedPenalty, 0):
		return fmt.Errorf("Retry.DegradedPenalty %g; need a finite factor (<= 1 = no penalty)", p.DegradedPenalty)
	}
	if p.DegradeAfter == 0 || p.DegradedPenalty <= 1 {
		return nil
	}
	// A degraded launch holds the device for up to MaxRetries+1
	// attempts, each the batch's service time times the penalty, as
	// the router computes it. Past float64's range the launch would
	// complete at +Inf, and its batch and everything queued behind it
	// would be neither served nor shed.
	attempts := float64(p.MaxRetries) + 1
	for _, m := range models {
		for k := 1; k <= maxBatch; k++ {
			if t := attempts * (b.ServiceCycles(m, k) * p.DegradedPenalty); math.IsInf(t, 0) {
				return fmt.Errorf("Retry.DegradedPenalty %g; a degraded batch-%d launch of model %d takes %g cycles over %g attempts, need a finite time",
					p.DegradedPenalty, k, m, t, attempts)
			}
		}
	}
	return nil
}

// degraded reports whether detected failures crossed the threshold.
func (p *RetryPlan) degraded(detected int64) bool {
	return p.DegradeAfter > 0 && detected >= p.DegradeAfter
}

// attempts runs one launch's validation loop on the device's draw
// source: each detected failure costs a re-run, up to MaxRetries. It
// returns the attempt count and whether the last attempt validated, and
// adds every detection to *detected.
func (p *RetryPlan) attempts(rng *rand.Rand, detected *int64) (n int, ok bool) {
	n = 1
	if rng == nil {
		return n, true
	}
	for rng.Float64() < p.DetectedPerLaunch {
		*detected++
		if n > p.MaxRetries {
			return n, false
		}
		n++
	}
	return n, true
}
