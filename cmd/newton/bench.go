package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"newton/internal/experiments"
)

// figures lists bench's studies in -fig all order: each runs its
// study and builds the study's table.
var figures = []struct {
	name string
	run  func(c experiments.Config) (experiments.Table, error)
}{
	{"8", func(c experiments.Config) (experiments.Table, error) {
		rows, sum, err := c.Fig8Layers()
		return experiments.Fig8LayersTable(rows, sum), err
	}},
	{"8e2e", func(c experiments.Config) (experiments.Table, error) {
		rows, mean, err := c.Fig8EndToEnd()
		return experiments.Fig8EndToEndTable(rows, mean), err
	}},
	{"e2e", func(c experiments.Config) (experiments.Table, error) {
		rows, mean, err := c.E2E(nil)
		return experiments.E2ETable(rows, mean), err
	}},
	{"9", func(c experiments.Config) (experiments.Table, error) {
		rows, means, err := c.Fig9()
		return experiments.Fig9Table(rows, means), err
	}},
	{"10", func(c experiments.Config) (experiments.Table, error) {
		rows, means, predicted, err := c.Fig10()
		return experiments.Fig10Table(rows, means, predicted), err
	}},
	{"11", func(c experiments.Config) (experiments.Table, error) {
		rows, err := c.Fig11()
		return experiments.Fig11Table(rows), err
	}},
	{"12", func(c experiments.Config) (experiments.Table, error) {
		rows, err := c.Fig12()
		return experiments.Fig12Table(rows), err
	}},
	{"13", func(c experiments.Config) (experiments.Table, error) {
		rows, mean, err := c.Fig13()
		return experiments.Fig13Table(rows, mean), err
	}},
	{"model", func(c experiments.Config) (experiments.Table, error) {
		rows, err := c.ModelValidation()
		return experiments.ModelValidationTable(rows), err
	}},
	{"channels", func(c experiments.Config) (experiments.Table, error) {
		rows, err := c.ChannelScaling()
		return experiments.ChannelScalingTable(rows), err
	}},
	{"multitenant", func(c experiments.Config) (experiments.Table, error) {
		r, err := c.MultiTenant()
		return experiments.MultiTenantTable(r), err
	}},
	{"serving", func(c experiments.Config) (experiments.Table, error) {
		points, sum, err := c.Serving()
		return experiments.ServingTable(points, sum), err
	}},
	{"cluster", func(c experiments.Config) (experiments.Table, error) {
		points, sum, err := c.Cluster()
		return experiments.ClusterTable(points, sum), err
	}},
	{"fault", func(c experiments.Config) (experiments.Table, error) {
		points, sum, err := c.FaultCampaign()
		return experiments.FaultTable(points, sum), err
	}},
	{"coexist", func(c experiments.Config) (experiments.Table, error) {
		points, err := c.Coexistence()
		return experiments.CoexistenceTable(points), err
	}},
	{"families", func(c experiments.Config) (experiments.Table, error) {
		rows, err := c.Families()
		return experiments.FamiliesTable(rows), err
	}},
	{"noreuse", func(c experiments.Config) (experiments.Table, error) {
		rows, err := c.NoReuse()
		return experiments.NoReuseTable(rows), err
	}},
}

// figureNames lists -fig's values, "all" aside.
func figureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// runBench regenerates the paper's evaluation figures (Figs. 8-13) and
// the model-validation, layout, serving, fleet, fault and coexistence
// studies, printing each as a text table or, with -format csv, as CSV.
//
// With -json DIR, every study also writes its typed results to
// DIR/BENCH_<name>.json, so results can be tracked across changes.
//
// -fig fault is the reliability campaign: seeded bit-flip injection
// into the stored weight rows of a simulated Newton device, with and
// without the host-side SEC-DED(72,64) scrub, reporting
// corrected/detected/silent-corruption counters, inference accuracy
// loss (rel-L2 / max-ULP against the golden run), and serve-layer
// availability under detect-and-retry. -bers, -max-per-word, -seed and
// -n tune it. The headline contract is visible in the default sweep:
// with ECC+scrub, single-bit-per-word campaigns are fully corrected
// (zero SDC, output error 0); with protection disabled, the same seeded
// flips survive as silent corruption and accuracy loss.
//
// -chrometrace FILE runs a conformance-verified fig9 ladder on a small
// layer and writes it as a Chrome trace-event file for chrome://tracing
// or Perfetto (see EXPERIMENTS.md for a walkthrough). -verify and
// -chrometrace watch the event-driven core's own command stream, the
// core every figure runs on. -serial forces the serial reference path
// for any figure; -cpuprofile/-memprofile capture pprof profiles of
// whatever the invocation runs (see EXPERIMENTS.md for a profiling
// walkthrough). Simulator wall-clock speed is measured by the
// repository benchmark, `bash perfbench/run.sh` (workloads and bounds in
// BENCHMARK.json), not by this command.
func runBench(args []string, stdout io.Writer) error {
	fs := newFlagSet("bench", "[-fig NAME] [flags]")
	names := strings.Join(figureNames(), ", ") + ", or all"
	fig := fs.String("fig", "all", "figure to regenerate: "+names)
	var geo geometry
	geo.register(fs, 24)
	functional := fs.Bool("functional", false, "validate data paths inside the ideal baseline (slower)")
	verify := fs.Bool("verify", false, "run every simulation under the independent conformance checker; any timing or protocol violation aborts")
	format := fs.String("format", "table", "output format: table or csv")
	jsonDir := fs.String("json", "", "also write each study's BENCH_<name>.json file into this directory")
	serial := fs.Bool("serial", false, "force the serial reference path: channels simulate one at a time and sweeps run their design points sequentially (results are byte-identical either way)")
	seed := fs.Int64("seed", experiments.Default().Seed, "weight, input and fault-injection seed")
	n := fs.Int("n", 0, "serving and fault arrivals per stream, and coexistence products per point (0 = each study's default)")
	bers := fs.String("bers", "", "fault campaign BER sweep, comma-separated (default: the campaign sweep)")
	maxPerWord := fs.Int("max-per-word", 0, "fault campaign: cap injected flips per 64-bit word (0 = uncapped)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	chromeOut := fs.String("chrometrace", "", "run a conformance-verified fig9 ladder on a small layer and write it as a Chrome trace-event file (chrome://tracing, Perfetto) to this file, then exit")
	if err := parse(fs, args, geo.check); err != nil {
		return err
	}

	if *fig != "all" && !slices.Contains(figureNames(), *fig) {
		return badFlag("fig", "%q is not a figure (want %s)", *fig, names)
	}
	if *format != "table" && *format != "csv" {
		return badFlag("format", "%q is not table or csv", *format)
	}
	if *n < 0 {
		return badFlag("n", "must be 0 (each study's default) or more, got %d", *n)
	}
	cfg := experiments.Default()
	cfg.Channels, cfg.Banks = geo.channels, geo.banks
	cfg.Functional, cfg.Verify, cfg.Serial = *functional, *verify, *serial
	cfg.Seed, cfg.ServingN, cfg.FaultMaxPerWord = *seed, *n, *maxPerWord
	if *bers != "" {
		for _, part := range strings.Split(*bers, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !(v >= 0) {
				return badFlag("bers", "bad entry %q (want a bit-error rate >= 0)", part)
			}
			cfg.FaultBERs = append(cfg.FaultBERs, v)
		}
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *chromeOut != "" {
		if err := createFile(*chromeOut, cfg.ChromeTrace); err != nil {
			return fmt.Errorf("chrometrace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *chromeOut)
		return nil
	}
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		start := time.Now()
		t, err := f.run(cfg)
		if err == nil && *jsonDir != "" {
			err = writeJSON(filepath.Join(*jsonDir, "BENCH_"+f.name+".json"), t)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if *format == "csv" {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.Text())
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	if *verify {
		verifySummary()
	}
	return nil
}

// writeJSON persists a study's typed results for cross-run tracking.
func writeJSON(path string, t experiments.Table) error {
	data, err := t.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// startProfiles starts the -cpuprofile CPU profile and returns a stop
// func that ends it and writes the -memprofile heap profile. Every exit
// path runs stop, so a failed run still leaves its partial profiles.
func startProfiles(cpuPath, memPath string) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		runtime.GC()
		if err := createFile(memPath, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintf(os.Stderr, "newton bench: -memprofile: %v\n", err)
		}
	}, nil
}
