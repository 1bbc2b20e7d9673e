package main

import (
	"fmt"
	"io"

	"newton/internal/aim"
	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/traceio"
	"newton/internal/traceview"
)

// runTrace prints the cycle-stamped command stream of a small Newton
// operation, reproducing the timing picture of the paper's Fig. 7 (one
// DRAM row consumed across all banks): the ganged activations paced by
// tFAW, the COMP stream paced by tCCD, and the result read after the
// adder tree drains.
func runTrace(args []string, stdout io.Writer) error {
	fs := newFlagSet("trace", "[-rows R] [-cols C] [-variant newton|nonopt|noreuse] [-max N] [-o trace.txt] [-gantt]")
	rows := fs.Int("rows", 32, "matrix rows")
	cols := fs.Int("cols", 512, "matrix cols")
	variant := fs.String("variant", "newton", "design point: newton, nonopt, noreuse")
	maxCmds := fs.Int("max", 120, "maximum commands to print (0 = all)")
	out := fs.String("o", "", "also record the full trace to this file (newton replay format)")
	gantt := fs.Bool("gantt", false, "render the run as an ASCII bus/bank timeline")
	ganttWidth := fs.Int("gantt-width", 110, "timeline columns")
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := atLeast1("rows", *rows); err != nil {
		return err
	}
	if err := atLeast1("cols", *cols); err != nil {
		return err
	}

	var opts host.Options
	aggressive := true
	switch *variant {
	case "newton":
		opts = host.Newton()
	case "nonopt":
		opts = host.NonOpt()
		aggressive = false
	case "noreuse":
		opts = host.NoReuse()
	default:
		return badFlag("variant", "%q is not newton, nonopt or noreuse", *variant)
	}

	geo := dram.HBM2EGeometry(1)
	t := dram.ConventionalTiming()
	if aggressive {
		t = dram.AiMTiming()
	}
	cfg := dram.Config{Geometry: geo, Timing: t}
	ctrl, err := host.NewController(cfg, opts)
	if err != nil {
		return err
	}

	printed := 0
	var recorded []traceio.TimedCommand
	ctrl.Trace = func(ch int, cmd dram.Command, cycle int64, res aim.Result) {
		if *out != "" || *gantt {
			cp := cmd
			if cmd.Data != nil {
				cp.Data = append([]byte(nil), cmd.Data...)
			}
			recorded = append(recorded, traceio.TimedCommand{Cycle: cycle, Cmd: cp})
		}
		if *maxCmds > 0 && printed >= *maxCmds {
			return
		}
		printed++
		line := fmt.Sprintf("%8d  %-18s", cycle, cmd.String())
		if res.Results != nil {
			line += fmt.Sprintf("  -> %d bank results", len(res.Results))
		}
		fmt.Fprintln(stdout, line)
	}

	m := layout.RandomMatrix(*rows, *cols, 1)
	p, err := ctrl.Place(m)
	if err != nil {
		return err
	}
	v := make(bf16.Vector, *cols)
	for i := range v {
		v[i] = bf16.FromFloat32(float32(i%5) / 5)
	}
	fmt.Fprintf(stdout, "# %s: %dx%d matrix, 1 channel, %d banks\n", *variant, *rows, *cols, geo.Banks)
	fmt.Fprintf(stdout, "# %-6s  %s\n", "cycle", "command")
	res, err := ctrl.RunMVM(p, v)
	if err != nil {
		return err
	}
	if *maxCmds > 0 && res.Stats.TotalCommands() > int64(*maxCmds) {
		fmt.Fprintf(stdout, "... (%d further commands)\n", res.Stats.TotalCommands()-int64(*maxCmds))
	}
	fmt.Fprintf(stdout, "# total: %d commands, %d cycles\n", res.Stats.TotalCommands(), res.Cycles)
	if *gantt {
		view, err := traceview.Render(cfg, recorded, traceview.Options{Width: *ganttWidth})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, view)
	}
	if *out != "" {
		if err := createFile(*out, func(w io.Writer) error { return traceio.Write(w, recorded) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# trace written to %s (replay with newton replay -in %s)\n", *out, *out)
	}
	return nil
}
