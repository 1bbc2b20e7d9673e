package dram

import "testing"

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{
		HBM2EConfig(),
		{Geometry: HBM2EGeometry(1), Timing: ConventionalTiming()},
		{Geometry: HBM2EGeometry(24), Timing: AiMTiming()},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := HBM2EGeometry(8)
	if got := g.ColBytes(); got != 32 {
		t.Errorf("ColBytes = %d, want 32", got)
	}
	if got := g.RowBytes(); got != 1024 {
		t.Errorf("RowBytes = %d, want 1024 (the paper's 1 KB row)", got)
	}
	if got := g.Clusters(); got != 4 {
		t.Errorf("Clusters = %d, want 4", got)
	}
	if g.Banks != 16 || g.Rows != 32768 || g.Cols != 32 || g.ColBits != 256 {
		t.Errorf("Table III geometry wrong: %+v", g)
	}
}

func TestGeometryValidateErrors(t *testing.T) {
	base := HBM2EGeometry(2)
	cases := []struct {
		name string
		mod  func(*Geometry)
	}{
		{"channels", func(g *Geometry) { g.Channels = 0 }},
		{"banks", func(g *Geometry) { g.Banks = 0 }},
		{"cluster", func(g *Geometry) { g.BanksPerCluster = 0 }},
		{"cluster-divides", func(g *Geometry) { g.BanksPerCluster = 5 }},
		{"rows", func(g *Geometry) { g.Rows = 0 }},
		{"cols", func(g *Geometry) { g.Cols = -1 }},
		{"colbits", func(g *Geometry) { g.ColBits = 12 }},
	}
	for _, c := range cases {
		g := base
		c.mod(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: invalid geometry accepted", c.name)
		}
	}
}

func TestTimingValidateErrors(t *testing.T) {
	base := ConventionalTiming()
	cases := []struct {
		name string
		mod  func(*Timing)
	}{
		{"cmdslot", func(tt *Timing) { tt.CmdSlot = 0 }},
		{"trcd", func(tt *Timing) { tt.TRCD = 0 }},
		{"tfaw<trrd", func(tt *Timing) { tt.TFAW = tt.TRRD - 1 }},
		{"tras<trcd", func(tt *Timing) { tt.TRAS = tt.TRCD - 1 }},
		{"trefi<=trfc", func(tt *Timing) { tt.TREFI = tt.TRFC }},
		{"trefi<=cmdslot", func(tt *Timing) { tt.CmdSlot = tt.TREFI }},
		{"tmac", func(tt *Timing) { tt.TMAC = 0 }},
	}
	for _, c := range cases {
		tt := base
		c.mod(&tt)
		if err := tt.Validate(); err == nil {
			t.Errorf("%s: invalid timing accepted", c.name)
		}
	}
}

func TestAiMTimingOnlyChangesTFAW(t *testing.T) {
	conv, aim := ConventionalTiming(), AiMTiming()
	if aim.TFAW >= conv.TFAW {
		t.Errorf("AiM tFAW (%d) should be below conventional (%d)", aim.TFAW, conv.TFAW)
	}
	conv.TFAW = aim.TFAW
	if conv != aim {
		t.Error("AiMTiming changed parameters other than tFAW")
	}
}

func TestTRC(t *testing.T) {
	tt := ConventionalTiming()
	if got := tt.TRC(); got != tt.TRAS+tt.TRP {
		t.Errorf("TRC = %d, want %d", got, tt.TRAS+tt.TRP)
	}
}

func TestTableIIIPublishedValues(t *testing.T) {
	// The values the paper publishes outright must be used directly.
	tt := ConventionalTiming()
	if tt.TRCD != 14 || tt.TRP != 14 || tt.TRAS != 33 {
		t.Errorf("published Table III values not honored: tRCD=%d tRP=%d tRAS=%d", tt.TRCD, tt.TRP, tt.TRAS)
	}
	if tt.TAA < 22 || tt.TAA > 29 {
		t.Errorf("tAA=%d outside the published 22-29 ns range", tt.TAA)
	}
}
