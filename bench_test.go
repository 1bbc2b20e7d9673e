package newton

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§V). Each BenchmarkFig* runs the corresponding experiment
// at the paper's full configuration (24 channels x 16 banks, all eight
// Table II layers) and reports the headline quantities as custom
// metrics; run with -v to see the full rendered tables. The expected
// paper values are recorded alongside the measured ones in
// EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
//
// Wall-clock per iteration is dominated by cycle-level simulation of
// hundreds of thousands to millions of DRAM commands, so the harness
// typically settles at N=1 per benchmark.

import (
	"testing"

	"newton/internal/experiments"
)

func benchConfig() experiments.Config {
	return experiments.Default()
}

// BenchmarkTableII measures the simulator on the full Table II layer set
// under full Newton: the per-layer cycle counts behind every figure.
func BenchmarkTableII(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, sum, err := cfg.Fig8Layers()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.Fig8LayersTable(rows, sum).Text())
		}
	}
}

// BenchmarkFig8Layers reports the left half of Fig. 8: geometric-mean
// speedups over the GPU (paper: Newton 54x, Non-opt 1.48x, Ideal 5.4x)
// and Newton's mean speedup over Ideal Non-PIM (paper: 10x).
func BenchmarkFig8Layers(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, sum, err := cfg.Fig8Layers()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.Newton, "newton_x")
		b.ReportMetric(sum.NonOpt, "nonopt_x")
		b.ReportMetric(sum.Ideal, "ideal_x")
		b.ReportMetric(sum.NewtonOverIdeal, "newton/ideal_x")
		if i == 0 {
			b.Logf("\n%s", experiments.Fig8LayersTable(rows, sum).Text())
		}
	}
}

// BenchmarkFig8EndToEnd reports the right half of Fig. 8: end-to-end
// model speedups (paper: overall 20x; GNMT/BERT/DLRM mean 49x; DLRM 47x;
// AlexNet 1.2x).
func BenchmarkFig8EndToEnd(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, mean, err := cfg.Fig8EndToEnd()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean, "geomean_x")
		for _, r := range rows {
			b.ReportMetric(r.Speedup, r.Name+"_x")
		}
		if i == 0 {
			b.Logf("\n%s", experiments.Fig8EndToEndTable(rows, mean).Text())
		}
	}
}

// BenchmarkFig9 reports the optimization-isolation study: the
// geometric-mean speedup over the GPU at each cumulative design point
// (paper: 1.48x rising to 54x, with ganging the largest step).
func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, means, err := cfg.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		for j, st := range experiments.Fig9Steps() {
			b.ReportMetric(means[j], st.Label+"_x")
		}
		if i == 0 {
			b.Logf("\n%s", experiments.Fig9Table(rows, means).Text())
		}
	}
}

// BenchmarkFig10 reports bank-count sensitivity (paper: 28x/54x/96x at
// 8/16/32 banks, sub-linear from the activation-overhead Amdahl term).
func BenchmarkFig10(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, means, predicted, err := cfg.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		for j, banks := range experiments.Fig10BankCounts {
			b.ReportMetric(means[j], experiments.BankMetricName(banks))
		}
		if i == 0 {
			b.Logf("\n%s", experiments.Fig10Table(rows, means, predicted).Text())
		}
	}
}

// BenchmarkFig11 reports batch sensitivity against Ideal Non-PIM
// (paper: near-parity at batch 8, Ideal 1.6x ahead at batch 16).
func BenchmarkFig11(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		// Report the crossover of the first full-width layer.
		b.ReportMetric(float64(rows[0].CrossoverBatch()), "ideal_crossover_batch")
		if i == 0 {
			b.Logf("\n%s", experiments.Fig11Table(rows).Text())
		}
	}
}

// BenchmarkFig12 reports batch sensitivity against the GPU (paper:
// crossover near batch 64).
func BenchmarkFig12(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].CrossoverBatch()), "gpu_crossover_batch")
		if i == 0 {
			b.Logf("\n%s", experiments.Fig12Table(rows).Text())
		}
	}
}

// BenchmarkFig13 reports the power study (paper: ~2.8x conventional DRAM
// on average, with lower total energy than any non-PIM design).
func BenchmarkFig13(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, mean, err := cfg.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean, "avg_power_x")
		if i == 0 {
			b.Logf("\n%s", experiments.Fig13Table(rows, mean).Text())
		}
	}
}

// BenchmarkModelValidation reports the §III-F analytic model against the
// simulator (paper: within 2%; ours within a few % for full-width
// layers, with documented deviation on ragged DLRM).
func BenchmarkModelValidation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.ModelValidation()
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows[:5] { // full-width layers
			if e := r.ErrorPct; e < 0 {
				e = -e
				if e > worst {
					worst = e
				}
			} else if e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst, "worst_model_error_pct")
		if i == 0 {
			b.Logf("\n%s", experiments.ModelValidationTable(rows).Text())
		}
	}
}

// BenchmarkNoReuse reports the §III-C layout study: the slowdown of
// Newton-no-reuse from its input re-fetch traffic.
func BenchmarkNoReuse(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.NoReuse()
		if err != nil {
			b.Fatal(err)
		}
		var sl []float64
		for _, r := range rows {
			sl = append(sl, r.Slowdown)
		}
		b.ReportMetric(experiments.GeoMean(sl), "noreuse_slowdown_x")
		if i == 0 {
			b.Logf("\n%s", experiments.NoReuseTable(rows).Text())
		}
	}
}

// BenchmarkCluster reports the fleet-serving study: a 4-device Newton
// fleet against a 4-device GPU fleet behind the same virtual-time
// router, with the Newton fleet's saturated capacity and the p99
// crossover load as custom metrics.
func BenchmarkCluster(b *testing.B) {
	cfg := benchConfig()
	cfg.ServingN = 10000
	for i := 0; i < b.N; i++ {
		pts, sum, err := cfg.Cluster()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.NewtonFleetQPS/1e6, "fleet_Mqps")
		b.ReportMetric(sum.CrossoverQPS/1e6, "crossover_Mqps")
		if i == 0 {
			b.Logf("\n%s", experiments.ClusterTable(pts, sum).Text())
		}
	}
}

// BenchmarkE2E runs the whole-model serving study: GNMT/BERT/DLRM each
// compiled to a single on-device ISR program (no host round trip
// between layers) against the per-layer host loop, reporting the
// per-model and geometric-mean speedups under the conservative
// round-trip estimate. It also holds the study's contract (too slow
// for the unit tests at the paper configuration): every model's
// on-device program beats the host loop, every divergence stays inside
// the bfloat16 LUT envelope, and at least one model is bit-exact.
func BenchmarkE2E(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, mean, err := cfg.E2E(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean, "geomean_x")
		for _, r := range rows {
			b.ReportMetric(r.Ratio, r.Name+"_x")
		}
		if i == 0 {
			b.Logf("\n%s", experiments.E2ETable(rows, mean).Text())
			checkE2EContract(b, rows)
		}
	}
}

// checkE2EContract fails b unless GNMT, BERT and DLRM each run at an
// on-device ratio of at least 1.0 with max |diff| at most 4, and at
// least one of them is exact.
func checkE2EContract(b *testing.B, rows []experiments.E2ERow) {
	byName := make(map[string]experiments.E2ERow, len(rows))
	exact := false
	for _, r := range rows {
		byName[r.Name] = r
		exact = exact || r.MaxAbsDiff == 0
	}
	for _, name := range []string{"GNMT", "BERT", "DLRM"} {
		r, ok := byName[name]
		switch {
		case !ok:
			b.Errorf("e2e study has no %s row", name)
		case r.Ratio < 1.0:
			b.Errorf("%s on-device ratio %.3f is below 1.0", name, r.Ratio)
		case r.MaxAbsDiff > 4:
			b.Errorf("%s max |diff| %.3g exceeds the LUT envelope of 4", name, r.MaxAbsDiff)
		}
	}
	if !exact {
		b.Error("no e2e model is bit-exact against the per-layer path")
	}
}

// BenchmarkMatVecGNMT measures raw simulator throughput on one GNMT-s1
// product: how long the host machine takes to simulate a 5.3 us Newton
// operation.
func BenchmarkMatVecGNMT(b *testing.B) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := RandomMatrix(4096, 1024, 1)
	pm, err := sys.Load(m)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float32, 1024)
	for i := range v {
		v[i] = float32(i%7) / 7
	}
	b.ResetTimer()
	var cmds int64
	for i := 0; i < b.N; i++ {
		_, st, err := sys.MatVec(pm, v)
		if err != nil {
			b.Fatal(err)
		}
		cmds = st.Commands
	}
	b.ReportMetric(float64(cmds), "dram_cmds/op")
}

// BenchmarkFamilies reports the §III-E family study: Newton's speedup
// over each DRAM family's own ideal non-PIM bound, which must track the
// §III-F model with that family's bank count and timing.
func BenchmarkFamilies(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Families()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Speedup, string(r.Family)+"_x")
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FamiliesTable(rows).Text())
		}
	}
}

// BenchmarkQuadLatch reports the §III-C intermediate design point next
// to Newton and the no-reuse variant (paper: quad-latch is "virtually
// similar" to Newton, so the extra latch area buys nothing).
func BenchmarkQuadLatch(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.NoReuse()
		if err != nil {
			b.Fatal(err)
		}
		var ql []float64
		for _, r := range rows {
			ql = append(ql, float64(r.QuadLatchCycles)/float64(r.NewtonCycles))
		}
		b.ReportMetric(experiments.GeoMean(ql), "quad/newton_x")
	}
}

// BenchmarkMultiTenant reports the §III-D channel-partitioning study:
// latency isolation for a small co-resident model.
func BenchmarkMultiTenant(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := cfg.MultiTenant()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.LatencyGain, "latency_isolation_x")
		b.ReportMetric(r.BSlowdown, "big_model_cost_x")
		if i == 0 {
			b.Logf("\n%s", experiments.MultiTenantTable(r).Text())
		}
	}
}

// BenchmarkChannelScaling reports the §V-C channel-scaling claim:
// adding channels scales Newton's performance nearly linearly while its
// advantage over the ideal host stays constant (no Amdahl tax).
func BenchmarkChannelScaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.ChannelScaling()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Scaling, "scaling_at_48ch_x")
		b.ReportMetric(last.SpeedupOverIdeal, "newton/ideal_at_48ch_x")
		if i == 0 {
			b.Logf("\n%s", experiments.ChannelScalingTable(rows).Text())
		}
	}
}

// BenchmarkServing runs the serving study: the Fig. 12 batching
// crossover restated as open-loop tail latency, Newton shards vs the
// dynamic-batching GPU through the same queue/batcher simulation.
func BenchmarkServing(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		points, sum, err := cfg.Serving()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.CrossoverQPS, "crossover_qps")
		b.ReportMetric(points[0].NewtonP99, "newton_p99_light_ns")
		b.ReportMetric(points[0].GPUP99, "gpu_p99_light_ns")
		if i == 0 {
			b.Logf("\n%s", experiments.ServingTable(points, sum).Text())
		}
	}
}
