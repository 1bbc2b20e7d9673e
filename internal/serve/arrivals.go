package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"newton/internal/cluster"
)

// PoissonArrivals generates n open-loop arrivals at the given offered
// load (queries per second of virtual time), with exponential
// interarrival gaps from an explicitly seeded source, so a (n, qps,
// seed) triple names one exact trace. Models are drawn from the weights
// slice (nil or empty = all requests for model 0); weights need not be
// normalized.
func PoissonArrivals(n int, qps float64, weights []float64, seed int64) []cluster.Request {
	if n <= 0 || qps <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	interarrival := 1e9 / qps // ns
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	reqs := make([]cluster.Request, n)
	t := 0.0
	for i := range reqs {
		t += rng.ExpFloat64() * interarrival
		model := 0
		if totalW > 0 {
			x := rng.Float64() * totalW
			for m, w := range weights {
				x -= w
				if x < 0 {
					model = m
					break
				}
			}
		}
		reqs[i] = cluster.Request{T: t, Model: model}
	}
	return reqs
}

// ParseTrace reads an arrival trace: one request per line as
// "<arrival_ns> <model_index>", with blank lines and #-comments
// ignored. Arrivals are sorted by time (stably) so hand-written traces
// need not be pre-sorted.
func ParseTrace(r io.Reader) ([]cluster.Request, error) {
	var reqs []cluster.Request
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var req cluster.Request
		if _, err := fmt.Sscanf(text, "%g %d", &req.T, &req.Model); err != nil {
			return nil, fmt.Errorf("serve: trace line %d %q: %w", line, text, err)
		}
		if math.IsNaN(req.T) || math.IsInf(req.T, 0) {
			return nil, fmt.Errorf("serve: trace line %d %q: arrival time is not finite", line, text)
		}
		if req.T < 0 || req.Model < 0 {
			return nil, fmt.Errorf("serve: trace line %d %q: negative field", line, text)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading trace: %w", err)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].T < reqs[j].T })
	return reqs, nil
}

// TraceHeader is the comment line FormatTrace opens a trace with, so a
// file holding several formatted traces has one per trace.
const TraceHeader = "# newton serve arrival trace: <arrival_ns> <model_index>"

// FormatTrace writes requests in the ParseTrace format.
func FormatTrace(w io.Writer, reqs []cluster.Request) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, TraceHeader)
	for _, r := range reqs {
		fmt.Fprintf(bw, "%g %d\n", r.T, r.Model)
	}
	return bw.Flush()
}
