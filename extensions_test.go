package newton

import (
	"math"
	"testing"
)

// quadLatchConfig is the §III-C quad-latch design point: row-major
// layout, four result latches per bank, every interface optimization on.
func quadLatchConfig() Config {
	cfg := DefaultConfig()
	cfg.Opts.Reuse = false
	cfg.LatchesPerBank = 4
	return cfg
}

func TestQuadLatchConfigSystem(t *testing.T) {
	cfg := quadLatchConfig()
	cfg.Channels = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(160, 1024, 21)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := testVec(1024)
	out, st, err := sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := m.MulVecReference(v)
	for i := range ref {
		if diff := math.Abs(float64(out[i] - ref[i])); diff > 0.5 {
			t.Errorf("row %d: %v vs %v", i, out[i], ref[i])
		}
	}
	// Quad-latch reads results once per matrix row, not once per DRAM
	// row: far fewer external result bytes than Newton proper.
	full, _ := NewSystem(smallConfig())
	fpm, _ := full.Load(m)
	_, fst, err := full.MatVec(fpm, v)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExternalBytesRead >= fst.ExternalBytesRead {
		t.Errorf("quad-latch result traffic %d not below Newton's %d",
			st.ExternalBytesRead, fst.ExternalBytesRead)
	}
}

func TestScrubPublicAPI(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(64, 512, 22)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	v := testVec(512)
	before, _, err := sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	t0 := sys.Now()
	if err := sys.Scrub(pm); err != nil {
		t.Fatal(err)
	}
	if sys.Now() <= t0 {
		t.Error("scrub took no simulated time")
	}
	after, _, err := sys.MatVec(pm, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("scrub changed results at %d: %v vs %v", i, before[i], after[i])
		}
	}
	if err := sys.Scrub(nil); err == nil {
		t.Error("Scrub(nil) accepted")
	}
}

func TestByteRegionPublicAPI(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.AllocBytes(128 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes() < 128*1024 {
		t.Errorf("region too small: %d", r.Bytes())
	}
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := sys.WriteBytes(r, 999, data); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadBytes(r, 999, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("round-trip mismatch: %q", got)
	}
	if err := sys.WriteBytes(nil, 0, data); err == nil {
		t.Error("nil region write accepted")
	}
	if _, err := sys.ReadBytes(nil, 0, 1); err == nil {
		t.Error("nil region read accepted")
	}
	var empty *ByteRegion
	if empty.Bytes() != 0 {
		t.Error("nil region has capacity")
	}
}

func TestCommandsPerColumn(t *testing.T) {
	run := func(cfg Config) RunStats {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := sys.Load(RandomMatrix(128, 1024, 31))
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := sys.MatVec(pm, testVec(1024))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := run(smallConfig())
	nonopt := smallConfig()
	nonopt.Opts = Optimizations{}
	no := run(nonopt)
	// Commands issued per bank-column of compute data consumed.
	perColumn := func(s RunStats) float64 { return float64(s.Commands) / float64(s.InternalBytesRead/32) }
	uf, un := perColumn(full), perColumn(no)
	// The paper's interface argument: the ganged complex commands cut
	// command traffic about 48x (16x gang, 3x fuse).
	if uf <= 0 || uf > 0.2 {
		t.Errorf("full Newton pays %.3f commands/column; one COMP serves 16 banks", uf)
	}
	if ratio := un / uf; ratio < 30 || ratio > 60 {
		t.Errorf("non-opt command cost only %.1fx Newton's, want ~40-50x", ratio)
	}
}
