// GNMT: end-to-end inference of the paper's neural machine translation
// workload - eight stacked LSTM layers - served the way Newton's ISR
// frontend serves it: the whole layer stack compiled to one on-device
// program, with activations and batch normalization applied at the
// device and no host round-trip between layers. The same inference runs
// through the per-layer host loop (with a charged round trip) and on
// the ideal non-PIM baseline for comparison.
package main

import (
	"fmt"
	"log"

	"newton"
)

func main() {
	log.SetFlags(0)
	cfg := newton.DefaultConfig()

	spec := newton.GNMTModel()
	fmt.Printf("model: %s - %d LSTM gate products, %d parameters (%d MB)\n",
		spec.Name, len(spec.Layers), spec.TotalParams(), spec.TotalParams()*2/(1<<20))

	sys, err := newton.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pm, err := sys.LoadModel(spec, 1)
	if err != nil {
		log.Fatal(err)
	}

	input := make([]float32, spec.InputWidth())
	for i := range input {
		input[i] = float32(i%11)/11 - 0.5
	}

	// Whole-model serving: one ISR program, zero host interaction
	// between layers.
	cm, err := sys.CompileModel(pm, input)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.RunModelOnDevice(pm, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on-device (1 ISR program, %d instructions): %d ns (%d refresh interruptions)\n",
		cm.Instructions(), res.Cycles, res.Refreshes)
	for i, lc := range res.LayerCycles {
		fmt.Printf("  %-6s %5d ns  (%dx%d)\n",
			spec.Layers[i].Name, lc, spec.Layers[i].Rows, spec.Layers[i].Cols)
	}

	// The pre-ISR serving mode: the host reads each layer's result back,
	// reshapes it, and rewrites it, paying a driver round trip between
	// layers (1 us here, a conservative kernel-launch-class estimate).
	const roundTrip = 1000
	hsys, err := newton.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hpm, err := hsys.LoadModel(spec, 1)
	if err != nil {
		log.Fatal(err)
	}
	hres, err := hsys.RunModelWithRoundTrip(hpm, input, roundTrip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-layer host loop (+%d ns/layer round trip): %d ns -> on-device is %.2fx faster\n",
		roundTrip, hres.Cycles, float64(hres.Cycles)/float64(res.Cycles))

	// The ideal non-PIM bound on the same inference.
	base, err := newton.NewIdealBaseline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bpm, err := base.LoadModel(spec, 1)
	if err != nil {
		log.Fatal(err)
	}
	bres, err := base.RunModel(bpm, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ideal non-PIM:       %d ns\n", bres.Cycles)
	fmt.Printf("speedup:             %.2fx over the best any non-PIM design can do\n",
		float64(bres.Cycles)/float64(res.Cycles))
}
