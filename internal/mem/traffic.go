package mem

import (
	"fmt"
	"math"
	"sort"
)

// Locality selects the row-locality profile of a generated stream.
type Locality int

const (
	// LocalityHit issues exactly HitStreak back-to-back accesses to one
	// (bank, row) before moving on: a stream with a row-hit rate of
	// (HitStreak-1)/HitStreak by construction.
	LocalityHit Locality = iota
	// LocalityStride walks columns by a fixed stride, advancing to the
	// next row on wrap-around: ceil(Cols/Stride) accesses per row, so
	// the hit rate is (k-1)/k with k = ceil(Cols/Stride).
	LocalityStride
	// LocalityUniform draws bank, row and column uniformly: the
	// worst-case, near-zero-hit profile.
	LocalityUniform
)

// String implements fmt.Stringer with stable names used in reports.
func (l Locality) String() string {
	switch l {
	case LocalityHit:
		return "hit-streak"
	case LocalityStride:
		return "stride"
	case LocalityUniform:
		return "uniform"
	}
	return fmt.Sprintf("Locality(%d)", int(l))
}

// ParseLocality maps a locality's String form back to its value.
func ParseLocality(s string) (Locality, error) {
	for _, l := range []Locality{LocalityHit, LocalityStride, LocalityUniform} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("mem: unknown locality %q (want hit-streak, stride or uniform)", s)
}

// Defaults for TrafficConfig's zero-valued knobs.
const (
	// DefaultHitStreak is the LocalityHit streak length when HitStreak
	// is zero.
	DefaultHitStreak = 8
	// DefaultStride is the LocalityStride column step when Stride is
	// zero.
	DefaultStride = 1
	// DefaultRows is the conventional-region footprint in rows per bank
	// when Rows is zero.
	DefaultRows = 32
)

// TrafficConfig describes one host-traffic workload. Arrivals form an
// independent Poisson process per channel (exponential inter-arrival
// gaps), reproducible from Seed; the address stream follows the
// configured locality profile over a per-bank region of Rows rows that
// the controller maps into the conventional end of the row space.
type TrafficConfig struct {
	// IntensityReqPerUs is the offered load per channel in requests per
	// microsecond (at the 1 GHz command clock, one request per
	// 1000/intensity cycles on average).
	IntensityReqPerUs float64
	// ReadFraction is the probability a request is a read, in [0, 1].
	ReadFraction float64
	// Locality selects the row-locality profile.
	Locality Locality
	// HitStreak is the LocalityHit streak length (0 = DefaultHitStreak).
	HitStreak int
	// Stride is the LocalityStride column step (0 = DefaultStride).
	Stride int
	// Rows is the per-bank conventional footprint in rows (0 =
	// DefaultRows). The controller allocates this many rows from the
	// top of the row space, honoring the §III-A same-row restriction.
	Rows int
	// Seed reproduces the stream; channel c draws from Seed^c.
	Seed int64
}

// Streak returns the effective LocalityHit streak length.
func (c TrafficConfig) Streak() int {
	if c.HitStreak == 0 {
		return DefaultHitStreak
	}
	return c.HitStreak
}

// StrideLen returns the effective LocalityStride column step.
func (c TrafficConfig) StrideLen() int {
	if c.Stride == 0 {
		return DefaultStride
	}
	return c.Stride
}

// FootprintRows returns the effective per-bank footprint in rows.
func (c TrafficConfig) FootprintRows() int {
	if c.Rows == 0 {
		return DefaultRows
	}
	return c.Rows
}

// Validate checks the workload parameters.
func (c TrafficConfig) Validate() error {
	if c.IntensityReqPerUs <= 0 {
		return fmt.Errorf("mem: intensity of %v requests/us", c.IntensityReqPerUs)
	}
	if c.ReadFraction < 0 || c.ReadFraction > 1 {
		return fmt.Errorf("mem: read fraction %v outside [0, 1]", c.ReadFraction)
	}
	switch c.Locality {
	case LocalityHit, LocalityStride, LocalityUniform:
	default:
		return fmt.Errorf("mem: unknown locality %d", int(c.Locality))
	}
	if c.HitStreak < 0 {
		return fmt.Errorf("mem: hit streak of %d", c.HitStreak)
	}
	if c.Stride < 0 {
		return fmt.Errorf("mem: stride of %d", c.Stride)
	}
	if c.Rows < 0 {
		return fmt.Errorf("mem: footprint of %d rows", c.Rows)
	}
	return nil
}

// Request is one conventional access: a timed RD or WR of one column
// I/O, addressed in generator coordinates (Row is an offset into the
// conventional region; the controller adds its allocated base row).
type Request struct {
	// Arrival is the cycle the request enters the controller's queue.
	Arrival int64
	// Write selects WR over RD.
	Write bool
	// Bank, Row, Col address one column I/O; Row is region-relative.
	Bank, Row, Col int
}

// Record is one serviced request's lifecycle on the channel clock.
type Record struct {
	// Arrival is the request's queue-entry cycle.
	Arrival int64
	// Start is the cycle its RD/WR command issued.
	Start int64
	// Done is when read data is valid on the bus (reads) or the write
	// command completed issue (writes).
	Done int64
	// Write mirrors the request's class.
	Write bool
}

// Latency returns the request's sojourn time: completion minus arrival.
func (r Record) Latency() int64 { return r.Done - r.Arrival }

// Stream is one channel's lazy, unbounded request generator plus the
// service records the controller appends as it drains the stream. A
// Stream belongs to one channel goroutine; Streams of different
// channels share nothing, which is what keeps parallel channel
// simulation byte-identical to the serial reference.
type Stream struct {
	cfg         TrafficConfig
	banks, cols int

	rng   uint64
	clock float64 // continuous arrival time accumulator
	mean  float64 // mean inter-arrival gap in cycles

	// Locality cursor.
	bank, row, col, left int

	next    Request
	hasNext bool

	records []Record
}

// newStream seeds channel ch's generator.
func newStream(cfg TrafficConfig, ch, banks, cols int) *Stream {
	s := &Stream{
		cfg:   cfg,
		banks: banks,
		cols:  cols,
		rng:   splitmixSeed(uint64(cfg.Seed) ^ (uint64(ch) * 0x9E3779B97F4A7C15)),
		mean:  1000 / cfg.IntensityReqPerUs,
		left:  cfg.Streak(),
	}
	return s
}

// splitmixSeed avoids the all-zero state splitmix64 would fixate on.
func splitmixSeed(s uint64) uint64 { return s + 0x9E3779B97F4A7C15 }

// rand64 steps the splitmix64 generator.
func (s *Stream) rand64() uint64 {
	s.rng += 0x9E3779B97F4A7C15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// randFloat returns a uniform draw in (0, 1].
func (s *Stream) randFloat() float64 {
	return float64(s.rand64()>>11+1) / float64(1<<53)
}

// randInt returns a uniform draw in [0, n).
func (s *Stream) randInt(n int) int {
	return int(s.rand64() % uint64(n))
}

// generate produces the next request according to the arrival process
// and locality profile.
func (s *Stream) generate() Request {
	// Exponential inter-arrival gap, at least one cycle so arrivals are
	// strictly ordered within a channel.
	gap := -s.mean * math.Log(s.randFloat())
	if gap < 1 {
		gap = 1
	}
	s.clock += gap
	req := Request{
		Arrival: int64(s.clock),
		Write:   s.randFloat() > s.cfg.ReadFraction,
	}
	rows := s.cfg.FootprintRows()
	switch s.cfg.Locality {
	case LocalityHit:
		if s.left == 0 {
			s.left = s.cfg.Streak()
			s.bank++
			if s.bank == s.banks {
				s.bank = 0
				s.row = (s.row + 1) % rows
			}
		}
		s.left--
		req.Bank, req.Row, req.Col = s.bank, s.row, s.randInt(s.cols)
	case LocalityStride:
		req.Bank, req.Row, req.Col = s.bank, s.row, s.col
		s.col += s.cfg.StrideLen()
		if s.col >= s.cols {
			s.col = 0
			s.row++
			if s.row == rows {
				s.row = 0
				s.bank = (s.bank + 1) % s.banks
			}
		}
	case LocalityUniform:
		req.Bank, req.Row, req.Col = s.randInt(s.banks), s.randInt(rows), s.randInt(s.cols)
	}
	return req
}

// Peek returns the next pending request without consuming it.
func (s *Stream) Peek() Request {
	if !s.hasNext {
		s.next = s.generate()
		s.hasNext = true
	}
	return s.next
}

// Pop consumes and returns the next pending request.
func (s *Stream) Pop() Request {
	r := s.Peek()
	s.hasNext = false
	return r
}

// Record appends one serviced request's lifecycle.
func (s *Stream) Record(r Record) { s.records = append(s.records, r) }

// Records returns the service log in issue order.
func (s *Stream) Records() []Record { return s.records }

// Traffic is one workload instantiated over a controller's channels:
// an independent Stream per channel, all drawn from the same
// configuration. Streams of equal configuration and geometry generate
// identical requests, so two controllers (e.g. the default and reference
// issuer modes under a differential test) each build their own
// Traffic and observe byte-identical arrival sequences.
type Traffic struct {
	cfg      TrafficConfig
	colBytes int
	streams  []*Stream
}

// New instantiates a workload over a geometry. colBytes is the column
// I/O width in bytes (the unit every request transfers).
func New(cfg TrafficConfig, channels, banks, cols, colBytes int) (*Traffic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if channels < 1 || banks < 1 || cols < 1 || colBytes < 1 {
		return nil, fmt.Errorf("mem: geometry %d channels, %d banks, %d cols, %d col bytes",
			channels, banks, cols, colBytes)
	}
	t := &Traffic{cfg: cfg, colBytes: colBytes, streams: make([]*Stream, channels)}
	for ch := range t.streams {
		t.streams[ch] = newStream(cfg, ch, banks, cols)
	}
	return t, nil
}

// Config returns the workload parameters.
func (t *Traffic) Config() TrafficConfig { return t.cfg }

// Channels returns the number of per-channel streams.
func (t *Traffic) Channels() int { return len(t.streams) }

// Channel returns channel ch's stream.
func (t *Traffic) Channel(ch int) *Stream { return t.streams[ch] }

// ColBytes returns the bytes one request transfers.
func (t *Traffic) ColBytes() int { return t.colBytes }

// Summary aggregates one workload's service records.
type Summary struct {
	// Requests, Reads and Writes count serviced requests.
	Requests, Reads, Writes int64
	// Bytes is the data moved: one column I/O per request.
	Bytes int64
	// P50, P95, P99 and Max are nearest-rank percentiles of the sojourn
	// latency (Done - Arrival) in cycles; Mean is its average. All zero
	// when no requests were serviced.
	P50, P95, P99, Max int64
	// Mean is the average sojourn latency in cycles.
	Mean float64
}

// Summary aggregates the service records of every channel.
func (t *Traffic) Summary() Summary {
	var s Summary
	var lat []int64
	for _, st := range t.streams {
		for _, r := range st.records {
			s.Requests++
			if r.Write {
				s.Writes++
			} else {
				s.Reads++
			}
			s.Bytes += int64(t.colBytes)
			lat = append(lat, r.Latency())
		}
	}
	if len(lat) == 0 {
		return s
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum int64
	for _, l := range lat {
		sum += l
	}
	s.P50 = percentile(lat, 50)
	s.P95 = percentile(lat, 95)
	s.P99 = percentile(lat, 99)
	s.Max = lat[len(lat)-1]
	s.Mean = float64(sum) / float64(len(lat))
	return s
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Percentile is the nearest-rank percentile of unsorted cycle samples,
// shared by the interference experiments for their PIM-latency tails.
func Percentile(samples []int64, p int) int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, p)
}

// RowHitRate reports, over a request window, the fraction of requests
// that hit their bank's previously accessed row — the open-row hit rate
// an in-order per-bank scheduler would see. The first request to each
// bank counts as a miss.
func RowHitRate(reqs []Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	last := make(map[int]int)
	hits := 0
	for _, r := range reqs {
		if row, ok := last[r.Bank]; ok && row == r.Row {
			hits++
		}
		last[r.Bank] = r.Row
	}
	return float64(hits) / float64(len(reqs))
}
