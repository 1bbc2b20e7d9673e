package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/isr"
	"newton/internal/nn"
)

// TestReplayISRRoundTrip compiles a small model to ISR text in one
// process state, writes it to disk, and replays it through replayISR:
// the capture-edit-replay workflow the command exists for. replayISR
// fails on any parse, check, or execution error.
func TestReplayISRRoundTrip(t *testing.T) {
	cfg := dram.Config{Geometry: dram.HBM2EGeometry(1), Timing: dram.AiMTiming()}
	c, err := host.NewController(cfg, host.Newton())
	if err != nil {
		t.Fatal(err)
	}
	model := nn.Model{Name: "tiny", Layers: []nn.Layer{
		{Name: "h", Rows: 32, Cols: 64, Act: nn.Tanh},
		{Name: "o", Rows: 16, Cols: 32, Act: nn.ReLU},
	}}
	pm, err := nn.PlaceModel(c, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := nn.NewExecutor(c, pm)
	if err != nil {
		t.Fatal(err)
	}
	input := make([]float32, 64)
	for i := range input {
		input[i] = float32(i%5)/5 - 0.4
	}
	prog, err := ex.Compile(input)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "prog.isr")
	if err := os.WriteFile(path, []byte(isr.EncodeString(prog)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replayISR(io.Discard, path, 1, true); err != nil {
		t.Fatal(err)
	}
}
