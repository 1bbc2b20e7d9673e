package mem

import (
	"math"
	"strings"
	"testing"
)

// gen pops n requests off channel ch of a fresh workload.
func gen(t *testing.T, cfg TrafficConfig, ch, n int) []Request {
	t.Helper()
	tr, err := New(cfg, ch+1, 16, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Channel(ch)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = st.Pop()
	}
	return reqs
}

func TestHitStreakRowHitRate(t *testing.T) {
	// LocalityHit with streak S yields exactly (S-1)/S hits over whole
	// streaks, by construction.
	for _, streak := range []int{2, 4, 8} {
		cfg := TrafficConfig{IntensityReqPerUs: 4, ReadFraction: 0.5,
			Locality: LocalityHit, HitStreak: streak, Seed: 9}
		n := streak * 40 // whole streaks only
		got := RowHitRate(gen(t, cfg, 0, n))
		want := float64(streak-1) / float64(streak)
		if got != want {
			t.Errorf("streak %d: hit rate %v, want %v", streak, got, want)
		}
	}
}

func TestStrideRowHitRate(t *testing.T) {
	// Stride s over 32 columns touches k = ceil(32/s) columns per row,
	// so the hit rate over whole rows is (k-1)/k.
	for _, stride := range []int{1, 5, 8} {
		cfg := TrafficConfig{IntensityReqPerUs: 4, ReadFraction: 0.5,
			Locality: LocalityStride, Stride: stride, Seed: 9}
		k := (32 + stride - 1) / stride
		n := k * 24 // whole rows only
		got := RowHitRate(gen(t, cfg, 0, n))
		want := float64(k-1) / float64(k)
		if got != want {
			t.Errorf("stride %d: hit rate %v, want %v (k=%d)", stride, got, want, k)
		}
	}
}

func TestUniformRowHitRateLow(t *testing.T) {
	// Uniform over 16 banks x 32 rows: the chance of repeating a bank's
	// last row is ~1/32; assert it stays far below the locality profiles.
	cfg := TrafficConfig{IntensityReqPerUs: 4, ReadFraction: 0.5,
		Locality: LocalityUniform, Seed: 9}
	if got := RowHitRate(gen(t, cfg, 0, 4096)); got > 0.1 {
		t.Errorf("uniform hit rate %v, want < 0.1", got)
	}
}

func TestStreamDeterministicAndOrdered(t *testing.T) {
	cfg := TrafficConfig{IntensityReqPerUs: 2, ReadFraction: 0.7,
		Locality: LocalityUniform, Seed: 42}
	a := gen(t, cfg, 0, 512)
	b := gen(t, cfg, 0, 512)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical streams: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Arrival <= a[i-1].Arrival {
			t.Fatalf("arrivals not strictly increasing at %d: %d then %d", i, a[i-1].Arrival, a[i].Arrival)
		}
	}
	// Distinct channels draw distinct streams.
	c := gen(t, cfg, 1, 512)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("channel 0 and channel 1 generated identical streams")
	}
}

func TestArrivalRateMatchesIntensity(t *testing.T) {
	// 4 requests/us means one per 250 cycles on average; over 10k
	// requests the empirical mean should land within 5%.
	cfg := TrafficConfig{IntensityReqPerUs: 4, ReadFraction: 0.5,
		Locality: LocalityUniform, Seed: 7}
	reqs := gen(t, cfg, 0, 10000)
	mean := float64(reqs[len(reqs)-1].Arrival) / float64(len(reqs))
	if math.Abs(mean-250)/250 > 0.05 {
		t.Errorf("mean inter-arrival %v cycles, want ~250", mean)
	}
}

func TestReadFraction(t *testing.T) {
	cfg := TrafficConfig{IntensityReqPerUs: 4, ReadFraction: 0.75,
		Locality: LocalityUniform, Seed: 3}
	reqs := gen(t, cfg, 0, 8000)
	reads := 0
	for _, r := range reqs {
		if !r.Write {
			reads++
		}
	}
	if f := float64(reads) / float64(len(reqs)); math.Abs(f-0.75) > 0.03 {
		t.Errorf("read fraction %v, want ~0.75", f)
	}
}

func TestRequestsStayInFootprint(t *testing.T) {
	for _, loc := range []Locality{LocalityHit, LocalityStride, LocalityUniform} {
		cfg := TrafficConfig{IntensityReqPerUs: 4, ReadFraction: 0.5,
			Locality: loc, Rows: 5, Seed: 1}
		for _, r := range gen(t, cfg, 0, 2048) {
			if r.Bank < 0 || r.Bank >= 16 || r.Row < 0 || r.Row >= 5 || r.Col < 0 || r.Col >= 32 {
				t.Fatalf("%v: request outside footprint: %+v", loc, r)
			}
		}
	}
}

func TestSliceBudgetEpochAccounting(t *testing.T) {
	// 25% of a 1000-cycle epoch = 250 host cycles per epoch.
	b := NewSliceBudget(1000, 0.25)
	if b.Budget() != 250 {
		t.Fatalf("budget %d, want 250", b.Budget())
	}
	if !b.Allow(0) {
		t.Fatal("fresh epoch must allow")
	}
	b.Charge(249)
	if !b.Allow(100) {
		t.Fatal("249/250 spent must still allow")
	}
	b.Charge(1)
	if b.Allow(999) {
		t.Fatal("250/250 spent must deny within the epoch")
	}
	if !b.Allow(1000) {
		t.Fatal("next epoch must reset the ledger")
	}
	if b.Used() != 0 {
		t.Fatalf("used %d after epoch roll, want 0", b.Used())
	}
	// Skipping epochs entirely still resets.
	b.Charge(250)
	if !b.Allow(5500) {
		t.Fatal("a later epoch must reset the ledger")
	}
}

func TestSliceBudgetMinimumGrant(t *testing.T) {
	// A tiny share must not round to zero (permanent starvation).
	if b := NewSliceBudget(100, 0.001); b.Budget() != 1 {
		t.Fatalf("budget %d, want the 1-cycle floor", b.Budget())
	}
}

func TestQoSDefaultsAndValidation(t *testing.T) {
	var q QoS
	if q.Policy != PIMPriority {
		t.Fatalf("zero QoS policy %v, want pim-priority", q.Policy)
	}
	if q.Epoch() != DefaultEpochCycles || q.Share() != DefaultHostShare {
		t.Fatalf("defaults %d/%v", q.Epoch(), q.Share())
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("zero QoS must validate: %v", err)
	}
	bad := []QoS{
		{Policy: Policy(99)},
		{EpochCycles: -1},
		{HostShare: -0.5},
		{HostShare: 1.5},
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("QoS %+v validated", q)
		}
	}
}

func TestTrafficConfigValidation(t *testing.T) {
	good := TrafficConfig{IntensityReqPerUs: 1, ReadFraction: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TrafficConfig{
		{IntensityReqPerUs: 0},
		{IntensityReqPerUs: -1},
		{IntensityReqPerUs: 1, ReadFraction: -0.1},
		{IntensityReqPerUs: 1, ReadFraction: 1.1},
		{IntensityReqPerUs: 1, Locality: Locality(9)},
		{IntensityReqPerUs: 1, HitStreak: -1},
		{IntensityReqPerUs: 1, Stride: -2},
		{IntensityReqPerUs: 1, Rows: -3},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
	if _, err := New(good, 0, 16, 32, 32); err == nil {
		t.Error("zero-channel geometry accepted")
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip of %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("round-robin"); err == nil || !strings.Contains(err.Error(), "round-robin") {
		t.Errorf("ParsePolicy(round-robin) err = %v, want an error naming it", err)
	}
	for _, l := range []Locality{LocalityHit, LocalityStride, LocalityUniform} {
		got, err := ParseLocality(l.String())
		if err != nil || got != l {
			t.Errorf("round trip of %v: %v, %v", l, got, err)
		}
	}
	if _, err := ParseLocality("zipf"); err == nil || !strings.Contains(err.Error(), "zipf") {
		t.Errorf("ParseLocality(zipf) err = %v, want an error naming it", err)
	}
}

func TestSummaryPercentiles(t *testing.T) {
	tr, err := New(TrafficConfig{IntensityReqPerUs: 1, ReadFraction: 0.5}, 1, 16, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Channel(0)
	// 100 records with latencies 1..100: nearest-rank p50=50, p95=95,
	// p99=99, max=100, mean=50.5.
	for i := 1; i <= 100; i++ {
		w := i%2 == 0
		st.Record(Record{Arrival: 0, Start: int64(i), Done: int64(i), Write: w})
	}
	s := tr.Summary()
	if s.Requests != 100 || s.Reads != 50 || s.Writes != 50 || s.Bytes != 3200 {
		t.Fatalf("counts: %+v", s)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 || s.Mean != 50.5 {
		t.Fatalf("percentiles: %+v", s)
	}
	if got := Percentile([]int64{5, 1, 3}, 50); got != 3 {
		t.Fatalf("Percentile = %d, want 3", got)
	}
}
