// Quickstart: run one matrix-vector product on a Newton accelerator-in-
// memory system, check it against a float32 reference, and compare its
// run time with the ideal non-PIM bound and the paper's analytic model.
package main

import (
	"fmt"
	"log"

	"newton"
)

func main() {
	log.SetFlags(0)

	// A Newton system with the paper's evaluation configuration:
	// 24 HBM2E-like channels, 16 banks each, every optimization on.
	cfg := newton.DefaultConfig()
	sys, err := newton.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The GNMT-s1 layer from the paper's Table II: a 4096x1024 weight
	// matrix multiplying a 1024-long activation vector.
	weights := newton.RandomMatrix(4096, 1024, 1)
	placed, err := sys.Load(weights)
	if err != nil {
		log.Fatal(err)
	}

	input := make([]float32, weights.Cols())
	for i := range input {
		input[i] = float32(i%7)/7 - 0.5
	}

	out, stats, err := sys.MatVec(placed, input)
	if err != nil {
		log.Fatal(err)
	}

	// Validate against the float32 oracle (the simulated datapath is
	// bfloat16, so small rounding differences are expected).
	ref, err := weights.MulVecReference(input)
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i := range ref {
		d := float64(out[i] - ref[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}

	// The same product on the ideal non-PIM system: infinite compute,
	// perfectly-used external bandwidth.
	base, err := newton.NewIdealBaseline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bplaced, err := base.Load(weights)
	if err != nil {
		log.Fatal(err)
	}
	_, bstats, err := base.MatVec(bplaced, input)
	if err != nil {
		log.Fatal(err)
	}

	predicted, _ := newton.Predict(cfg)
	fmt.Printf("matrix:              %dx%d bfloat16 (%d KB)\n",
		weights.Rows(), weights.Cols(), weights.SizeBytes()/1024)
	fmt.Printf("newton time:         %v (%d commands, %d refreshes)\n",
		stats.Duration(), stats.Commands, stats.Refreshes)
	fmt.Printf("ideal non-PIM time:  %v\n", bstats.Duration())
	fmt.Printf("speedup:             %.2fx (paper's model predicts %.2fx)\n",
		float64(bstats.Cycles)/float64(stats.Cycles), predicted)
	fmt.Printf("max |error| vs fp32: %.4f (bfloat16 datapath)\n", maxDiff)
	fmt.Printf("avg power:           %.2fx conventional DRAM\n", sys.PowerOf(stats).AvgPower)

	// Whole-model serving: a small two-layer MLP compiled to a single
	// on-device ISR program - activations and the layer-to-layer handoff
	// run at the device, with no host round trip between layers.
	mlp := newton.Model{Name: "mlp", Layers: []newton.Layer{
		{Name: "hidden", Rows: 256, Cols: 1024, Act: newton.ActTanh},
		{Name: "out", Rows: 64, Cols: 256, Act: newton.ActReLU},
	}}
	mpm, err := sys.LoadModel(mlp, 2)
	if err != nil {
		log.Fatal(err)
	}
	cm, err := sys.CompileModel(mpm, input)
	if err != nil {
		log.Fatal(err)
	}
	mres, err := sys.RunModelOnDevice(mpm, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhole-model serving: %q as one ISR program (%d instructions)\n",
		mlp.Name, cm.Instructions())
	fmt.Printf("on-device inference: %d ns across %d layers, %d outputs\n",
		mres.Cycles, len(mres.LayerCycles), len(mres.Output))
}
