package newton

import (
	"strings"
	"testing"
)

// coexistTestConfig is a small, fast coexisting system: heavy offered
// load on two channels so every policy has work to arbitrate.
func coexistTestConfig(policy TrafficPolicy) Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.Banks = 8
	cfg.Coexist = &CoexistConfig{
		Traffic: TrafficConfig{
			IntensityReqPerUs: 32,
			ReadFraction:      0.7,
			Locality:          TrafficHitStreak,
			Seed:              11,
		},
		Policy: policy,
	}
	return cfg
}

// TestCoexistValidation mirrors Split's exact-validation stance: every
// malformed coexistence field fails NewSystem with an error naming it.
func TestCoexistValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"bad policy", func(c *Config) { c.Coexist.Policy = TrafficPolicy(9) }, "Policy"},
		{"bad locality", func(c *Config) { c.Coexist.Traffic.Locality = TrafficLocality(9) }, "Locality"},
		{"zero intensity", func(c *Config) { c.Coexist.Traffic.IntensityReqPerUs = 0 }, "intensity"},
		{"bad read fraction", func(c *Config) { c.Coexist.Traffic.ReadFraction = 1.5 }, "read fraction"},
		{"negative stride", func(c *Config) { c.Coexist.Traffic.Stride = -1 }, "stride"},
		{"negative rows", func(c *Config) { c.Coexist.Traffic.Rows = -1 }, "rows"},
		{"bad host share", func(c *Config) { c.Coexist.HostShare = 1.5 }, "share"},
		{"negative epoch", func(c *Config) { c.Coexist.EpochCycles = -1 }, "epoch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coexistTestConfig(PolicyFairSlice)
			tc.mutate(&cfg)
			_, err := NewSystem(cfg)
			if err == nil {
				t.Fatal("malformed coexist config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "newton: ") {
				t.Errorf("error %q does not carry the package prefix", err)
			}
		})
	}
}

// TestCoexistStringers pins the enum names shared with reports, and the
// out-of-range fallbacks.
func TestCoexistStringers(t *testing.T) {
	if PolicyPIMPriority.String() != "pim-priority" || PolicyMemPriority.String() != "mem-priority" ||
		PolicyFairSlice.String() != "fair-slice" {
		t.Error("policy names drifted from the report vocabulary")
	}
	if TrafficHitStreak.String() != "hit-streak" || TrafficStride.String() != "stride" ||
		TrafficUniform.String() != "uniform" {
		t.Error("locality names drifted from the report vocabulary")
	}
	if !strings.Contains(TrafficPolicy(7).String(), "7") || !strings.Contains(TrafficLocality(7).String(), "7") {
		t.Error("out-of-range stringers lost the raw value")
	}
}

// TestCoexistSession runs products under mem-priority traffic and
// checks the full façade surface: stats accumulate, draining works, and
// the interleaved traffic never perturbs AiM results.
func TestCoexistSession(t *testing.T) {
	cfg := coexistTestConfig(PolicyMemPriority)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := cfg
	clean.Coexist = nil
	ref, err := NewSystem(clean)
	if err != nil {
		t.Fatal(err)
	}
	m := RandomMatrix(48, 256, 3)
	pm, err := sys.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	rpm, err := ref.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 256)
	for i := range in {
		in[i] = float32(i%13)/13 - 0.5
	}
	for run := 0; run < 3; run++ {
		out, _, err := sys.MatVec(pm, in)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.MatVec(rpm, in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("run %d: traffic perturbed output[%d]: %v != %v", run, i, out[i], want[i])
			}
		}
		if err := sys.DrainTraffic(); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.TrafficStats()
	if st.Requests == 0 || st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("no traffic serviced: %+v", st)
	}
	if st.Requests != st.Reads+st.Writes {
		t.Errorf("request classes do not sum: %+v", st)
	}
	if st.Bytes == 0 || st.Bytes != st.InRunBytes+st.BetweenBytes {
		t.Errorf("byte accounting inconsistent: %+v", st)
	}
	if st.InRunBytes == 0 || st.StallCycles == 0 {
		t.Errorf("mem-priority served nothing during runs: %+v", st)
	}
	if !(st.P50 <= st.P95 && st.P95 <= st.P99 && st.P99 <= st.Max) {
		t.Errorf("latency percentiles unordered: %+v", st)
	}
	if st.Mean <= 0 {
		t.Errorf("mean latency %v", st.Mean)
	}
}

// TestCoexistPIMPriorityIsolated checks the default policy's promise on
// the façade: products proceed untouched, traffic only moves in drains.
func TestCoexistPIMPriorityIsolated(t *testing.T) {
	cfg := coexistTestConfig(PolicyPIMPriority)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := sys.Load(RandomMatrix(32, 128, 5))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 128)
	for i := range in {
		in[i] = float32(i) / 128
	}
	if _, _, err := sys.MatVec(pm, in); err != nil {
		t.Fatal(err)
	}
	if st := sys.TrafficStats(); st.InRunBytes != 0 || st.StallCycles != 0 {
		t.Fatalf("pim-priority leaked in-run service: %+v", st)
	}
	if !sys.TrafficPending() {
		t.Fatal("no backlog accumulated during the run")
	}
	if err := sys.DrainTraffic(); err != nil {
		t.Fatal(err)
	}
	st := sys.TrafficStats()
	if st.Requests == 0 || st.BetweenBytes == 0 || st.InRunBytes != 0 {
		t.Fatalf("drain did not serve the backlog: %+v", st)
	}
}

// TestCoexistFacadeMisuse pins the no-coexist behavior: zero stats, no
// pending traffic, and a named error from DrainTraffic.
func TestCoexistFacadeMisuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	cfg.Banks = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.TrafficStats(); st != (TrafficStats{}) {
		t.Errorf("traffic stats without traffic: %+v", st)
	}
	if sys.TrafficPending() {
		t.Error("pending traffic on a system without Config.Coexist")
	}
	err = sys.DrainTraffic()
	if err == nil || !strings.Contains(err.Error(), "Config.Coexist") {
		t.Errorf("DrainTraffic error = %v", err)
	}
}
