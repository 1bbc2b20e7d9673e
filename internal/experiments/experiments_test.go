package experiments

import (
	"math"
	"strings"
	"testing"

	"newton/internal/workloads"
)

// fastConfig keeps experiment tests quick: fewer channels and two
// representative layers (one full-width, one ragged/small).
func fastConfig() Config {
	return Config{
		Channels: 4,
		Banks:    16,
		Seed:     42,
		Benchmarks: []workloads.Bench{
			{Name: "GNMT-s1", Rows: 4096, Cols: 1024},
			{Name: "DLRM-s1", Rows: 512, Cols: 256},
		},
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 {
		t.Error("degenerate geomeans should be 0")
	}
}

func TestFig8LayersShape(t *testing.T) {
	cfg := fastConfig()
	rows, sum, err := cfg.Fig8Layers()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Ordering the paper establishes: Newton > Ideal > Non-opt > GPU.
		if !(r.Newton > r.Ideal && r.Ideal > r.NonOpt && r.NonOpt > 0.5) {
			t.Errorf("%s ordering wrong: newton=%.1f ideal=%.1f nonopt=%.2f",
				r.Name, r.Newton, r.Ideal, r.NonOpt)
		}
	}
	if sum.NewtonOverIdeal < 4 || sum.NewtonOverIdeal > 12 {
		t.Errorf("Newton-over-ideal geomean %.1f implausible", sum.NewtonOverIdeal)
	}
	out := Fig8LayersTable(rows, sum).Text()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "GNMT-s1") {
		t.Error("render missing expected rows")
	}
}

func TestFig9CumulativeImprovement(t *testing.T) {
	cfg := fastConfig()
	rows, means, err := cfg.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != len(Fig9Steps()) {
		t.Fatalf("means has %d entries", len(means))
	}
	for i := 1; i < len(means); i++ {
		if means[i] < means[i-1] {
			t.Errorf("step %d mean %.2f below previous %.2f", i, means[i], means[i-1])
		}
	}
	if ratio := means[len(means)-1] / means[0]; ratio < 10 {
		t.Errorf("full ladder only %.1fx over non-opt", ratio)
	}
	if out := Fig9Table(rows, means).Text(); !strings.Contains(out, "+gang") {
		t.Error("render missing step labels")
	}
}

func TestFig10BankScaling(t *testing.T) {
	cfg := fastConfig()
	cfg.Benchmarks = cfg.Benchmarks[:1]
	rows, means, predicted, err := cfg.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 3 || len(predicted) != 3 {
		t.Fatal("wrong series lengths")
	}
	// More banks help, sub-linearly (Amdahl on activation overhead).
	if !(means[0] < means[1] && means[1] < means[2]) {
		t.Errorf("bank scaling not monotone: %v", means)
	}
	if means[2]/means[1] >= 2 {
		t.Errorf("32-bank gain %.2f not dampened", means[2]/means[1])
	}
	if !(predicted[0] < predicted[1] && predicted[1] < predicted[2]) {
		t.Errorf("model predictions not monotone: %v", predicted)
	}
	if out := Fig10Table(rows, means, predicted).Text(); !strings.Contains(out, "32 banks") {
		t.Error("render missing bank columns")
	}
}

func TestFig11IdealCatchesUpWithBatch(t *testing.T) {
	cfg := fastConfig()
	cfg.Benchmarks = cfg.Benchmarks[:1] // full-width layer
	rows, err := cfg.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Newton's normalized performance is flat to within refresh jitter
	// (it is measured from real back-to-back runs); the ideal baseline's
	// grows linearly and overtakes by k=16 (the paper's crossover).
	for i := 1; i < len(r.Newton); i++ {
		if math.Abs(r.Newton[i]-r.Newton[0])/r.Newton[0] > 0.03 {
			t.Errorf("Newton performance not flat: %v", r.Newton)
		}
	}
	if r.Baseline[0] >= r.Newton[0] {
		t.Error("ideal should lose at batch 1")
	}
	cross := r.CrossoverBatch()
	if cross == 0 || cross > 16 {
		t.Errorf("ideal crossover at %d, want <= 16", cross)
	}
	if out := Fig11Table(rows).Text(); !strings.Contains(out, "k=16") {
		t.Error("render missing batch columns")
	}
}

func TestFig12GPUNeedsLargeBatch(t *testing.T) {
	cfg := fastConfig()
	cfg.Benchmarks = cfg.Benchmarks[:1]
	rows, err := cfg.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The GPU must still lose at batch 16 and only catch Newton in the
	// vicinity of batch 64 (paper: crossover at 64).
	for i, k := range r.Batches {
		if k <= 16 && r.Baseline[i] > r.Newton[i] {
			t.Errorf("GPU overtook Newton at batch %d", k)
		}
	}
	last := len(r.Batches) - 1
	if r.Batches[last] != 64 {
		t.Fatal("test expects last batch 64")
	}
	ratio := r.Baseline[last] / r.Newton[last]
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("at batch 64 GPU/Newton = %.2f, want near the crossover (0.5-2)", ratio)
	}
}

func TestFig13PowerRange(t *testing.T) {
	cfg := fastConfig()
	rows, mean, err := cfg.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if mean < 1.5 || mean > 3.8 {
		t.Errorf("mean power %.2fx outside plausible range around the paper's 2.8x", mean)
	}
	for _, r := range rows {
		if r.EnergyRatio >= 1 {
			t.Errorf("%s energy ratio %.2f >= 1: Newton should save energy", r.Name, r.EnergyRatio)
		}
	}
	if out := Fig13Table(rows, mean).Text(); !strings.Contains(out, "avg power") {
		t.Error("render missing header")
	}
}

func TestModelValidationWithinTolerance(t *testing.T) {
	cfg := fastConfig()
	cfg.Benchmarks = cfg.Benchmarks[:1] // full-width layer: the model's regime
	rows, err := cfg.ModelValidation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.ErrorPct) > 10 {
			t.Errorf("%s: simulator deviates %.1f%% from the SIII-F model", r.Name, r.ErrorPct)
		}
	}
	if out := ModelValidationTable(rows).Text(); !strings.Contains(out, "model") {
		t.Error("render missing header")
	}
}

func TestNoReuseStudy(t *testing.T) {
	cfg := fastConfig()
	rows, err := cfg.NoReuse()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// No-reuse can never win; for full-DRAM-row chunks (GNMT-s1)
		// the input re-fetch exceeds what activation overlap can hide
		// and the slowdown is pronounced. (Half-row chunks like DLRM's
		// hide the short re-fetch under the activation stagger, so there
		// the tie is legitimate.)
		if r.Slowdown < 0.999 {
			t.Errorf("%s: no-reuse faster than Newton (%.2fx)", r.Name, r.Slowdown)
		}
		if r.Name == "GNMT-s1" && r.Slowdown < 1.15 {
			t.Errorf("%s: no-reuse slowdown %.2fx, want pronounced", r.Name, r.Slowdown)
		}
		if r.InputBytesNoReuse <= r.InputBytesNewton {
			t.Errorf("%s: no-reuse input traffic did not rise", r.Name)
		}
	}
	if out := NoReuseTable(rows).Text(); !strings.Contains(out, "slowdown") {
		t.Error("render missing header")
	}
}

func TestFamiliesTrackModel(t *testing.T) {
	cfg := fastConfig()
	rows, err := cfg.Families()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d families", len(rows))
	}
	for _, r := range rows {
		// Each family's measured Newton-over-ideal speedup must track
		// the SIII-F model evaluated with that family's parameters.
		if dev := math.Abs(r.Speedup-r.Predicted) / r.Predicted; dev > 0.10 {
			t.Errorf("%s: measured %.2fx vs model %.2fx (%.0f%% off)",
				r.Family, r.Speedup, r.Predicted, 100*dev)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: Newton did not beat its own ideal bound", r.Family)
		}
	}
	if out := FamiliesTable(rows).Text(); !strings.Contains(out, "gddr6") {
		t.Error("render missing families")
	}
}

func TestMultiTenant(t *testing.T) {
	cfg := fastConfig()
	r, err := cfg.MultiTenant()
	if err != nil {
		t.Fatal(err)
	}
	if r.ChannelsA+r.ChannelsB != cfg.Channels {
		t.Error("partitions do not cover the device")
	}
	// Isolation must be a large win for the small model...
	if r.LatencyGain < 2 {
		t.Errorf("latency isolation gained only %.2fx", r.LatencyGain)
	}
	// ...at a bounded, roughly channel-proportional cost to the big one.
	maxSlowdown := 1.2 * float64(cfg.Channels) / float64(r.ChannelsB)
	if r.BSlowdown < 1 || r.BSlowdown > maxSlowdown {
		t.Errorf("big-model slowdown %.2fx outside (1, %.2f]", r.BSlowdown, maxSlowdown)
	}
	if out := MultiTenantTable(r).Text(); !strings.Contains(out, "partitioned") {
		t.Error("render missing schedule rows")
	}
}

func TestChannelScaling(t *testing.T) {
	cfg := fastConfig()
	rows, err := cfg.ChannelScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ChannelCounts) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		// The per-channel Amdahl term is untouched: Newton's advantage
		// over the ideal host stays in a narrow band at every count.
		if r.SpeedupOverIdeal < 8.5 || r.SpeedupOverIdeal > 10.5 {
			t.Errorf("%d channels: Newton/ideal = %.2f, want stable near 9.5", r.Channels, r.SpeedupOverIdeal)
		}
		if i == 0 {
			continue
		}
		// Doubling channels must nearly double absolute performance
		// (within 15%, allowing ragged channel sharding).
		wantScale := float64(r.Channels) / float64(rows[0].Channels)
		if r.Scaling < 0.85*wantScale || r.Scaling > 1.15*wantScale {
			t.Errorf("%d channels: scaling %.2fx, want near %.2fx", r.Channels, r.Scaling, wantScale)
		}
	}
	if out := ChannelScalingTable(rows).Text(); !strings.Contains(out, "channels") {
		t.Error("render missing header")
	}
}

func TestCSVRenderers(t *testing.T) {
	cfg := fastConfig()
	cfg.Benchmarks = cfg.Benchmarks[:1]
	rows, sum, err := cfg.Fig8Layers()
	if err != nil {
		t.Fatal(err)
	}
	out := Fig8LayersTable(rows, sum).CSV()
	if !strings.HasPrefix(out, "layer,newton_cycles") || !strings.Contains(out, "GNMT-s1,") {
		t.Errorf("fig8 csv malformed:\n%s", out)
	}
	f9, m9, err := cfg.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if got := Fig9Table(f9, m9).CSV(); !strings.Contains(got, "gang") || strings.Contains(got, "*") {
		t.Errorf("fig9 csv header malformed:\n%s", got)
	}
	f10, m10, p10, err := cfg.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if got := Fig10Table(f10, m10, p10).CSV(); !strings.Contains(got, "banks32") {
		t.Errorf("fig10 csv malformed:\n%s", got)
	}
	f11, err := cfg.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if got := Fig11Table(f11).CSV(); !strings.Contains(got, "k16") || !strings.Contains(got, ",ideal,") {
		t.Errorf("batch csv malformed:\n%s", got)
	}
	f13, m13, err := cfg.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if got := Fig13Table(f13, m13).CSV(); !strings.Contains(got, "avg_power_x") {
		t.Errorf("fig13 csv malformed:\n%s", got)
	}
	// Every CSV line has the same cell count as its header.
	for _, doc := range []string{out, Fig9Table(f9, m9).CSV(), Fig10Table(f10, m10, p10).CSV(), Fig11Table(f11).CSV(), Fig13Table(f13, m13).CSV()} {
		lines := strings.Split(strings.TrimSpace(doc), "\n")
		want := strings.Count(lines[0], ",")
		for _, l := range lines[1:] {
			if strings.Count(l, ",") != want {
				t.Errorf("ragged csv line %q", l)
			}
		}
	}
}
