package main

import (
	"strings"
	"testing"

	"newton"
)

// testOptions is a small, fast session: 2 channels, mem-priority so
// both the in-run and drain paths execute.
func testOptions() options {
	return options{
		geometry:  geometry{channels: 2, banks: 16},
		policy:    "mem-priority",
		intensity: 16,
		readFrac:  0.7,
		locality:  "hit-streak",
		seed:      7,
		workload:  "DLRM-s1",
		runs:      3,
		drain:     true,
	}
}

func TestResolveShape(t *testing.T) {
	if r, c, err := resolveShape("ignored", 128, 64); err != nil || r != 128 || c != 64 {
		t.Errorf("explicit shape = %d, %d, %v; want 128, 64", r, c, err)
	}
	r, c, err := resolveShape("DLRM-s1", 0, 0)
	if err != nil || r <= 0 || c <= 0 {
		t.Errorf("DLRM-s1 shape = %d, %d, %v; want positive dims", r, c, err)
	}
	if _, _, err := resolveShape("NoSuchLayer", 0, 0); err == nil {
		t.Error("resolveShape(NoSuchLayer) succeeded, want error")
	}
}

func TestBuildConfigErrors(t *testing.T) {
	o := testOptions()
	o.policy = "bogus"
	if _, err := buildConfig(o); err == nil {
		t.Error("bad policy accepted")
	}
	o = testOptions()
	o.locality = "bogus"
	if _, err := buildConfig(o); err == nil {
		t.Error("bad locality accepted")
	}
	o = testOptions()
	cfg, err := buildConfig(o)
	if err != nil {
		t.Fatalf("buildConfig: %v", err)
	}
	if cfg.Coexist == nil || cfg.Channels != 2 {
		t.Errorf("config not lowered: coexist=%v channels=%d", cfg.Coexist, cfg.Channels)
	}
	// Every flag name lowers to the façade enum of the same name.
	for name, want := range map[string]newton.TrafficPolicy{
		"pim-priority": newton.PolicyPIMPriority,
		"mem-priority": newton.PolicyMemPriority,
		"fair-slice":   newton.PolicyFairSlice,
	} {
		o.policy = name
		if cfg, err := buildConfig(o); err != nil || cfg.Coexist.Policy != want {
			t.Errorf("-policy %s lowered to %v, %v; want %v", name, cfg.Coexist, err, want)
		}
	}
	for name, want := range map[string]newton.TrafficLocality{
		"hit-streak": newton.TrafficHitStreak,
		"stride":     newton.TrafficStride,
		"uniform":    newton.TrafficUniform,
	} {
		o.locality = name
		if cfg, err := buildConfig(o); err != nil || cfg.Coexist.Traffic.Locality != want {
			t.Errorf("-locality %s lowered to %v, %v; want %v", name, cfg.Coexist, err, want)
		}
	}
}

func TestSessionReport(t *testing.T) {
	var sb strings.Builder
	if err := session(testOptions(), &sb); err != nil {
		t.Fatalf("session: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"coexistence:", "mem-priority", "run  0:", "run  2:",
		"conventional traffic:", "in-run", "GB/s while PIM was busy",
		"drained", "latency", "pim stall",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Determinism: the same options reproduce the report byte for byte.
	var sb2 strings.Builder
	if err := session(testOptions(), &sb2); err != nil {
		t.Fatalf("session rerun: %v", err)
	}
	if sb2.String() != out {
		t.Error("session report differs across identical runs")
	}

	// An invalid traffic config surfaces as an error, not a panic.
	bad := testOptions()
	bad.readFrac = 1.5
	if err := session(bad, &sb); err == nil || !strings.Contains(err.Error(), "read fraction") {
		t.Errorf("session with bad read fraction err = %v", err)
	}
	// Unknown workload surfaces before any system is built.
	bad = testOptions()
	bad.workload = "NoSuchLayer"
	if err := session(bad, &sb); err == nil {
		t.Error("session with unknown workload succeeded")
	}
}
