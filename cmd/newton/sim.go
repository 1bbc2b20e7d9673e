package main

import (
	"fmt"
	"io"

	"newton"
	"newton/internal/workloads"
)

// runSim runs one matrix-vector product (or one end-to-end model) on a
// configurable Newton system and reports timing, command counts,
// bandwidth, and power.
func runSim(args []string, stdout io.Writer) error {
	fs := newFlagSet("sim", "[-workload GNMT-s1 | -rows R -cols C | -model GNMT] [-variant newton|nonopt|noreuse] [flags]")
	workload := fs.String("workload", "GNMT-s1", "Table II layer name (see -list)")
	rows := fs.Int("rows", 0, "matrix rows (overrides -workload with -cols)")
	cols := fs.Int("cols", 0, "matrix cols")
	modelName := fs.String("model", "", "end-to-end model: GNMT, BERT, AlexNet, DLRM")
	variant := fs.String("variant", "newton", "design point: newton, nonopt, noreuse")
	var geo geometry
	geo.register(fs, 24)
	batch := fs.Int("batch", 1, "batch size (sequential inputs)")
	list := fs.Bool("list", false, "list Table II workloads and exit")
	if err := parse(fs, args, geo.check, func() error { return atLeast1("batch", *batch) }); err != nil {
		return err
	}

	if *list {
		for _, b := range workloads.TableII() {
			fmt.Fprintf(stdout, "%-12s %6d x %-6d (%d params)\n", b.Name, b.Rows, b.Cols, b.Params())
		}
		return nil
	}
	cfg := geo.config()
	switch *variant {
	case "newton":
	case "nonopt":
		cfg.Opts = newton.Optimizations{}
	case "noreuse":
		cfg.Opts = newton.AllOptimizations()
		cfg.Opts.Reuse = false
	default:
		return badFlag("variant", "%q is not newton, nonopt or noreuse", *variant)
	}
	var r, c int
	if *modelName == "" {
		var err error
		if r, c, err = resolveShape(*workload, *rows, *cols); err != nil {
			return err
		}
	}
	sys, err := newton.NewSystem(cfg)
	if err != nil {
		return err
	}
	if *modelName != "" {
		return runModel(stdout, sys, *modelName)
	}

	mat := newton.RandomMatrix(r, c, 1)
	pm, err := sys.Load(mat)
	if err != nil {
		return err
	}
	inputs := make([][]float32, *batch)
	for k := range inputs {
		v := make([]float32, c)
		for i := range v {
			v[i] = float32((i+k)%13)/13 - 0.5
		}
		inputs[k] = v
	}
	outs, st, err := sys.MatVecBatch(pm, inputs)
	if err != nil {
		return err
	}
	ref, err := mat.MulVecReference(inputs[0])
	if err != nil {
		return err
	}
	var maxErr float64
	for i := range ref {
		d := float64(outs[0][i] - ref[i])
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	pw := sys.PowerOf(st)
	fmt.Fprintf(stdout, "workload:            %d x %d, batch %d, variant %s\n", r, c, *batch, *variant)
	fmt.Fprintf(stdout, "time:                %d cycles (%v)\n", st.Cycles, st.Duration())
	fmt.Fprintf(stdout, "commands:            %d (%d activations, %d refreshes)\n", st.Commands, st.Activations, st.Refreshes)
	fmt.Fprintf(stdout, "internal bandwidth:  %.1f GB/s consumed by PIM compute\n",
		float64(st.InternalBytesRead)/float64(st.Cycles))
	fmt.Fprintf(stdout, "external traffic:    %d B read, %d B written\n", st.ExternalBytesRead, st.ExternalBytesWritten)
	fmt.Fprintf(stdout, "avg power:           %.2fx conventional DRAM (compute busy %.0f%%)\n",
		pw.AvgPower, 100*pw.ComputeFraction)
	fmt.Fprintf(stdout, "max abs error vs fp32 reference: %.4f (bfloat16 datapath)\n", maxErr)
	return nil
}

// runModel runs one end-to-end model and reports its cycles.
func runModel(stdout io.Writer, sys *newton.System, name string) error {
	var spec newton.Model
	switch name {
	case "GNMT":
		spec = newton.GNMTModel()
	case "BERT":
		spec = newton.BERTModel()
	case "AlexNet":
		spec = newton.AlexNetModel()
	case "DLRM":
		spec = newton.DLRMModel()
	default:
		return badFlag("model", "%q is not GNMT, BERT, AlexNet or DLRM", name)
	}
	pm, err := sys.LoadModel(spec, 1)
	if err != nil {
		return err
	}
	input := make([]float32, spec.InputWidth())
	for i := range input {
		input[i] = float32(i%11)/11 - 0.5
	}
	res, err := sys.RunModel(pm, input)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model:      %s (%d FC layers, %d params)\n", spec.Name, len(spec.Layers), spec.TotalParams())
	fmt.Fprintf(stdout, "time:       %d cycles end-to-end\n", res.Cycles)
	fmt.Fprintf(stdout, "refreshes:  %d\n", res.Refreshes)
	var sum int64
	for _, lc := range res.LayerCycles {
		sum += lc
	}
	fmt.Fprintf(stdout, "MV cycles:  %d (%.1f%% of end-to-end)\n", sum, 100*float64(sum)/float64(res.Cycles))
	return nil
}
