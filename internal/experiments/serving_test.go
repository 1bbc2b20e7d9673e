package experiments

import (
	"strings"
	"testing"
)

// TestServingCrossover checks the study's headline claims on the full
// 24-channel device: Newton's p99 wins the light-load points, the GPU
// wins past a measured load, and the whole study is exactly
// reproducible.
func TestServingCrossover(t *testing.T) {
	cfg := Default()
	cfg.ServingN = 4000
	points, sum, err := cfg.Serving()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ServingLoads) {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].Winner() != "Newton" {
		t.Errorf("at %.0f qps Newton should win: newton p99 %v vs gpu %v",
			points[0].QPS, points[0].NewtonP99, points[0].GPUP99)
	}
	last := points[len(points)-1]
	if last.Winner() != "GPU" {
		t.Errorf("at %.0f qps the batching GPU should win: newton p99 %v vs gpu %v",
			last.QPS, last.NewtonP99, last.GPUP99)
	}
	if sum.CrossoverQPS == 0 {
		t.Error("no crossover found in the studied range")
	}
	if last.GPUBatch <= 1 {
		t.Errorf("GPU should batch at saturating load, mean batch %v", last.GPUBatch)
	}
	// Newton serves unbatched at its flat measured service time.
	if points[0].NewtonBatch != 1 {
		t.Errorf("Newton mean batch %v, want 1", points[0].NewtonBatch)
	}

	// Exact reproducibility: a second full run reports identical
	// numbers at every point.
	points2, sum2, err := cfg.Serving()
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i] != points2[i] {
			t.Errorf("point %d differs across runs: %+v vs %+v", i, points[i], points2[i])
		}
	}
	if sum.CrossoverQPS != sum2.CrossoverQPS {
		t.Errorf("crossover differs across runs: %v vs %v", sum.CrossoverQPS, sum2.CrossoverQPS)
	}

	out := ServingTable(points, sum).Text()
	for _, want := range []string{"DLRM-s1", "crossover", "winner", "GPU"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	csv := ServingTable(points, sum).CSV()
	if !strings.Contains(csv, "qps,newton_p50") || len(strings.Split(strings.TrimSpace(csv), "\n")) != len(points)+1 {
		t.Errorf("csv malformed:\n%s", csv)
	}
}
