package host

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"newton/internal/dram"
	"newton/internal/layout"
)

func TestIdealOutputExact(t *testing.T) {
	// The ideal host folds in float32 with no bf16 intermediate
	// rounding, so it must match the float32 oracle exactly.
	cfg := testCfg()
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(50, 700, 31)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(700, 32)
	res, err := h.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, res.Output, want, "ideal")
}

func TestIdealStreamsAtExternalBandwidth(t *testing.T) {
	// The ideal host's time must be within a few percent of
	// matrixBytes / externalBandwidth: activations and precharges hide
	// under the column stream.
	cfg := testCfg()
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(256, 1024, 33)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunMVM(p, randomVector(1024, 34))
	if err != nil {
		t.Fatal(err)
	}
	// Per-channel bytes / per-channel bandwidth; the busiest channel
	// holds ceil-share of the tiles.
	g := cfg.Geometry
	tilesBusiest := (p.Tiles() + g.Channels - 1) / g.Channels
	rowsBusiest := tilesBusiest * p.NumChunks() * g.Banks
	ideal := float64(rowsBusiest*g.Cols) * float64(cfg.Timing.TCCD)
	got := float64(res.Cycles)
	if got < ideal {
		t.Fatalf("ideal ran faster (%v) than the bandwidth bound (%v)", got, ideal)
	}
	// Discount mandatory refresh time (about tRFC per tREFI), then the
	// remaining overhead must stay under 5%.
	refresh := float64(res.Stats.Refreshes/int64(g.Channels)) * float64(cfg.Timing.TRFC)
	if streaming := got - refresh; streaming > ideal*1.05 {
		t.Errorf("ideal streamed %.0f cycles (sans refresh), more than 5%% over the bound %.0f",
			streaming, ideal)
	}
}

func TestIdealSkipsPadding(t *testing.T) {
	// A half-width matrix (DLRM-like) must stream in about half the
	// time of a full-width one with the same rows: the ideal host is
	// bounded by matrix bytes, not layout padding.
	cfg := testCfg()
	run := func(cols int) int64 {
		h, err := NewIdealNonPIM(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := layout.RandomMatrix(128, cols, 35)
		p, err := h.Place(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.RunMVM(p, randomVector(cols, 36))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	full := run(512)
	half := run(256)
	ratio := float64(half) / float64(full)
	if math.Abs(ratio-0.5) > 0.1 {
		t.Errorf("half-width streams in %.2f of full-width time, want about 0.5", ratio)
	}
}

func TestIdealRefreshes(t *testing.T) {
	cfg := testCfg()
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(512, 1024, 37)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.RunMVM(p, randomVector(1024, 38))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 2*cfg.Timing.TREFI {
		t.Skip("run too short")
	}
	perChannel := res.Stats.Refreshes / int64(cfg.Geometry.Channels)
	expected := res.Cycles / cfg.Timing.TREFI
	if perChannel < expected-1 || perChannel > expected+2 {
		t.Errorf("refreshes per channel = %d, expected about %d", perChannel, expected)
	}
}

func TestIdealSingleBank(t *testing.T) {
	// With one bank no activation overlap is possible; the run must
	// still be correct, just slower per row.
	cfg := testCfg()
	cfg.Geometry.Banks = 1
	cfg.Geometry.BanksPerCluster = 1
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(8, 512, 39)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(512, 40)
	res, err := h.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.MulVec(v)
	assertExact(t, res.Output, want, "single bank")
	perRow := float64(res.Cycles) / 4 // 8 rows over 2 channels
	tt := cfg.Timing
	minPerRow := float64(32*tt.TCCD + tt.TRP)
	if perRow < minPerRow {
		t.Errorf("per-row %.0f below the no-overlap bound %.0f", perRow, minPerRow)
	}
}

func TestIdealBatchInvariance(t *testing.T) {
	// Batching does not change the ideal host's matrix-stream time: the
	// library models batch-k as one stream. This test pins the
	// assumption by checking two consecutive runs take the same time.
	cfg := testCfg()
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(64, 512, 41)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	v := randomVector(512, 42)
	r1, err := h.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(float64(r1.Cycles - r2.Cycles))
	if diff/float64(r1.Cycles) > 0.05 {
		t.Errorf("consecutive ideal runs differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
}

func TestIdealVectorLengthValidation(t *testing.T) {
	h, err := NewIdealNonPIM(testCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(16, 512, 43)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.RunMVM(p, randomVector(100, 44)); err == nil {
		t.Error("wrong vector length accepted")
	}
}

func TestNewtonBeatsIdealByModelFactor(t *testing.T) {
	// The headline: Newton's speedup over the ideal non-PIM should be
	// near the SIII-F model's n/(o+1) for a large full-width matrix.
	cfg := testCfg()
	m := layout.RandomMatrix(512, 1024, 45)
	v := randomVector(1024, 46)
	newton, _ := runMVM(t, cfg, Newton(), m, v)

	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := h.RunMVM(p, v)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(ideal.Cycles) / float64(newton.Cycles)
	tt := cfg.Timing
	o := float64(3*tt.TFAW+tt.TRCD+tt.TRP) / float64(32*tt.TCCD)
	predicted := 16 / (o + 1)
	if math.Abs(speedup-predicted)/predicted > 0.10 {
		t.Errorf("speedup %.2fx deviates more than 10%% from model %.2fx", speedup, predicted)
	}
}

// idealGoldenCase is one point of the ideal stream's pinned grid.
type idealGoldenCase struct {
	family     dram.Family
	banks      int
	rows, cols int
}

// String names the case. The "/compute=true" suffix is from when the
// fold could be turned off; it keeps the file's lines the recorded ones.
func (c idealGoldenCase) String() string {
	return fmt.Sprintf("%s/b%d/%dx%d/compute=true", c.family, c.banks, c.rows, c.cols)
}

// idealDigest runs one case's session — place, run, Advance(4321), run
// again — and hashes every observable: both runs' output bits, cycle
// bounds, per-channel cycles and stats, then the final clock and the
// cumulative stats. It also returns the session's refresh count.
func idealDigest(t *testing.T, c idealGoldenCase) (string, int64) {
	t.Helper()
	cfg, _ := dram.FamilyConfig(c.family, 2)
	cfg.Geometry.Banks = c.banks
	if c.banks < cfg.Geometry.BanksPerCluster {
		cfg.Geometry.BanksPerCluster = c.banks
	}
	h, err := NewIdealNonPIM(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := layout.RandomMatrix(c.rows, c.cols, 61)
	p, err := h.Place(m)
	if err != nil {
		t.Fatal(err)
	}
	d := sha256.New()
	for run := 0; run < 2; run++ {
		res, err := h.RunMVM(p, randomVector(c.cols, int64(62+run)))
		if err != nil {
			t.Fatalf("%v run %d: %v", c, run, err)
		}
		for _, o := range res.Output {
			fmt.Fprintf(d, "%08x ", math.Float32bits(o))
		}
		fmt.Fprintf(d, "\n%d %d %d %v %+v\n", res.StartCycle, res.EndCycle, res.Cycles, res.PerChannelCycles, res.Stats)
		if run == 0 {
			h.Advance(4321)
		}
	}
	fmt.Fprintf(d, "%d %+v\n", h.Now(), h.Stats())
	return hex.EncodeToString(d.Sum(nil)), h.Stats().Refreshes
}

// TestIdealGolden pins the Ideal Non-PIM stream over every DRAM family,
// bank counts from 1 (no activation overlap) to 16, full-width, ragged
// and padded shapes, across two runs with host time between them. The
// file was recorded from the ideal host's own issuer, before the stream
// moved onto the controller's, so any change to its command schedule,
// refresh placement or fold shows up as a changed case. Set
// NEWTON_WRITE_GOLDEN=1 to regenerate after an intentional change to
// the stream.
func TestIdealGolden(t *testing.T) {
	var got bytes.Buffer
	fmt.Fprintf(&got, "# SHA-256 of the ideal stream's session per case (see TestIdealGolden).\n")
	var refreshes int64
	for _, f := range dram.Families() {
		for _, banks := range []int{1, 2, 4, 16} {
			for _, s := range [][2]int{{8, 64}, {96, 600}, {512, 1024}, {33, 1500}} {
				c := idealGoldenCase{f, banks, s[0], s[1]}
				digest, n := idealDigest(t, c)
				fmt.Fprintf(&got, "%v %s\n", c, digest)
				refreshes += n
			}
		}
	}
	if refreshes == 0 {
		t.Error("no case refreshed: the golden no longer guards the refresh policy")
	}
	path := filepath.Join("testdata", "ideal_golden.txt")
	if os.Getenv("NEWTON_WRITE_GOLDEN") != "" {
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
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
