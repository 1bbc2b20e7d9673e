package main

import (
	"fmt"
	"io"
	"os"

	"newton/internal/conformance"
	"newton/internal/dram"
	"newton/internal/host"
	"newton/internal/isr"
	"newton/internal/traceio"
)

// runReplay validates and times a recorded AiM command trace against
// the cycle-level simulator, the trace-driven workflow of classic DRAM
// simulators: capture a schedule (newton trace -o), edit or generate it
// offline, then replay it here to check every timing constraint and
// obtain the resulting statistics. The trace issues on a one-channel
// controller through the host's issuer, as every other path's commands
// do; -banks sizes the channel and -latches its result latches.
//
// In strict mode any timing violation aborts with the offending entry
// and its earliest legal cycle; otherwise a violating command is
// re-scheduled at its earliest legal cycle at or after the previous
// command's, so the commands after it keep their order, and the number
// of shifts is reported.
//
// With -isr the input is a textual ISR program (the format isr.Encode
// emits and nn.Executor compiles to): it is statically checked, then
// executed through a full Verify-enabled controller of -channels
// channels by the ISR frontend, and the readback, MARK stamps and
// end-to-end cycle count are reported. Compiled programs are
// self-contained (the input vector and concrete DRAM rows are
// embedded), so a program captured from one process replays
// bit-identically in another.
func runReplay(args []string, stdout io.Writer) error {
	fs := newFlagSet("replay", "-in trace.txt [-strict] [-banks N] [-latches N] | -isr prog.isr [-channels N]")
	in := fs.String("in", "", "command trace file (- for stdin)")
	isrIn := fs.String("isr", "", "ISR program file to replay instead of a command trace (- for stdin)")
	strict := fs.Bool("strict", false, "abort on the first timing violation")
	var geo geometry
	geo.register(fs, 1)
	latches := fs.Int("latches", 1, "result latches per bank")
	conventional := fs.Bool("conventional-tfaw", false, "use the conventional (non-AiM) tFAW")
	verify := fs.Bool("verify", true, "also run the trace through the protocol-conformance checker")
	if err := parse(fs, args, geo.check); err != nil {
		return err
	}
	if err := atLeast1("latches", *latches); err != nil {
		return err
	}

	if *isrIn != "" {
		return replayISR(stdout, *isrIn, geo.channels, *verify)
	}
	if *in == "" {
		return badFlag("in", "no trace given (use -in FILE or -isr FILE)")
	}
	f, err := openInput(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	trace, err := traceio.Parse(f)
	if err != nil {
		return err
	}

	g := dram.HBM2EGeometry(1)
	g.Banks = geo.banks
	if geo.banks < g.BanksPerCluster {
		g.BanksPerCluster = geo.banks
	}
	t := dram.AiMTiming()
	if *conventional {
		t = dram.ConventionalTiming()
	}
	cfg := dram.Config{Geometry: g, Timing: t}
	c, err := host.NewController(cfg, host.Options{LatchesPerBank: *latches})
	if err != nil {
		return err
	}

	// The checker observes the stream the controller issues, shifts
	// included. Refresh cadence is disabled: offline traces carry no
	// refresh policy of their own (strict replay already re-times any
	// REFs they do contain).
	var chk *conformance.Checker
	if *verify {
		if chk, err = conformance.New(cfg, conformance.Options{Latches: *latches, RefreshSlack: -1}); err != nil {
			return err
		}
		c.Engine(0).SetObserver(chk)
	}
	rep, shifted, err := traceio.Replay(c, trace, *strict)
	if err != nil {
		return err
	}
	if chk != nil {
		if vs := chk.Violations(); len(vs) > 0 {
			return fmt.Errorf("conformance: %d violations, first: %v", len(vs), vs[0])
		}
		fmt.Fprintf(stdout, "conformance:   %d commands checked, 0 violations\n", chk.Commands())
	}
	fmt.Fprintf(stdout, "replayed:      %d commands\n", rep.Commands)
	fmt.Fprintf(stdout, "finish cycle:  %d\n", rep.LastCycle)
	fmt.Fprintf(stdout, "shifted:       %d commands re-scheduled for timing\n", shifted)
	fmt.Fprintf(stdout, "activations:   %d, refreshes: %d\n", rep.Stats.Activations, rep.Stats.Refreshes)
	fmt.Fprintf(stdout, "column reads:  %d (%d B internal, %d B external)\n",
		rep.Stats.ColumnReads, rep.Stats.InternalBytesRead, rep.Stats.BytesRead)
	if len(rep.Results) > 0 {
		fmt.Fprintf(stdout, "result reads:  %d (first: %.4g ...)\n", len(rep.Results), rep.Results[0][0])
	}
	return nil
}

// openInput opens a file argument, "-" meaning stdin.
func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

// replayISR statically checks and executes a textual ISR program on a
// fresh device.
func replayISR(stdout io.Writer, path string, channels int, verify bool) error {
	f, err := openInput(path)
	if err != nil {
		return err
	}
	defer f.Close()
	prog, err := isr.Parse(f)
	if err != nil {
		return err
	}

	cfg := dram.Config{Geometry: dram.HBM2EGeometry(channels), Timing: dram.AiMTiming()}
	opts := host.Newton()
	opts.Verify = verify
	if err := isr.CheckProgram(prog, cfg.Geometry, opts.Latches()); err != nil {
		return fmt.Errorf("static check: %w", err)
	}
	fmt.Fprintf(stdout, "static check:  %d instructions clean\n", len(prog.Instrs))

	c, err := host.NewController(cfg, opts)
	if err != nil {
		return err
	}
	fe, err := isr.NewFrontend(c)
	if err != nil {
		return err
	}
	rep, err := fe.Run(prog)
	if err != nil {
		return err
	}
	if verify {
		fmt.Fprintln(stdout, "conformance:   0 violations (checked at issue)")
	}
	fmt.Fprintf(stdout, "executed:      %d instructions\n", rep.Instrs)
	fmt.Fprintf(stdout, "cycles:        %d\n", rep.EndCycle-rep.StartCycle)
	st := c.Stats()
	fmt.Fprintf(stdout, "activations:   %d, refreshes: %d\n", st.Activations, st.Refreshes)
	for _, m := range rep.Marks {
		fmt.Fprintf(stdout, "mark %-3d       cycle %d\n", m.ID, m.Cycle)
	}
	if n := len(rep.Readback); n > 0 {
		fmt.Fprintf(stdout, "readback:      %d elements (first: %.6g)\n", n, rep.Readback[0])
	}
	return nil
}
