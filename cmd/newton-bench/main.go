// Command newton-bench regenerates the paper's evaluation figures
// (Figs. 8-13) and the model-validation, layout, serving and fault
// studies, printing each as a text table.
//
// Usage:
//
//	newton-bench [-fig 8|9|10|11|12|13|model|noreuse|serving|cluster|fault|coexist|all] [-channels N] [-banks N] [-functional]
//
// With -json DIR, runners that have a machine-readable form (serving, cluster,
// fault, coexist) also write BENCH_<name>.json files into DIR, so the
// reliability and coexistence results can be tracked across changes.
//
// -chrometrace FILE runs a conformance-verified fig9 ladder on a small
// layer and writes it as a Chrome trace-event file for chrome://tracing
// or Perfetto (see EXPERIMENTS.md for a walkthrough). -verify and
// -chrometrace watch the event-driven core's own command stream, the
// core every figure runs on. -serial forces the serial reference path
// for any figure; -cpuprofile/-memprofile capture pprof profiles of
// whatever the invocation runs (see EXPERIMENTS.md for a profiling
// walkthrough).
// Simulator wall-clock speed is measured by the repository benchmark,
// `bash perfbench/run.sh` (workloads and bounds in BENCHMARK.json), not
// by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"newton/internal/conformance"
	"newton/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("newton-bench: ")
	fig := flag.String("fig", "all", "figure to regenerate: 8, 8e2e, 9, 10, 11, 12, 13, e2e, model, noreuse, families, multitenant, channels, serving, cluster, fault, coexist, or all")
	channels := flag.Int("channels", 24, "memory channels")
	banks := flag.Int("banks", 16, "banks per channel")
	functional := flag.Bool("functional", false, "validate data paths inside the ideal baseline (slower)")
	verify := flag.Bool("verify", false, "run every simulation under the independent conformance checker; any timing or protocol violation aborts")
	format := flag.String("format", "table", "output format: table or csv (csv available for figs 8, 9, 10, 11, 12, 13)")
	jsonDir := flag.String("json", "", "also write BENCH_<name>.json files into this directory (serving, cluster, fault, coexist)")
	serial := flag.Bool("serial", false, "force the serial reference path: channels simulate one at a time and sweeps run their design points sequentially (results are byte-identical either way)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	chromeOut := flag.String("chrometrace", "", "run a conformance-verified fig9 ladder on a small layer and write it as a Chrome trace-event file (chrome://tracing, Perfetto) to this file, then exit")
	flag.Parse()
	csv := *format == "csv"

	// stopProfiles flushes any requested pprof outputs; every exit path
	// below (including failures) runs it so partial profiles survive.
	stopProfiles := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile != "" {
		cpuStop := stopProfiles
		path := *memprofile
		stopProfiles = func() {
			cpuStop()
			runtime.GC()
			f, err := os.Create(path)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}
	}
	fatalf := func(format string, args ...any) {
		stopProfiles()
		log.Fatalf(format, args...)
	}

	// writeJSON persists a runner's typed rows for cross-run tracking.
	writeJSON := func(name string, v any) error {
		if *jsonDir == "" {
			return nil
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return nil
	}

	cfg := experiments.Default()
	cfg.Channels = *channels
	cfg.Banks = *banks
	cfg.Functional = *functional
	cfg.Verify = *verify
	cfg.Serial = *serial

	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fatalf("chrometrace: %v", err)
		}
		if err := cfg.ChromeTrace(f); err != nil {
			f.Close()
			fatalf("chrometrace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("chrometrace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *chromeOut)
		stopProfiles()
		return
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("8", func() error {
		rows, sum, err := cfg.Fig8Layers()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVFig8Layers(rows))
			return nil
		}
		fmt.Println(experiments.RenderFig8Layers(rows, sum))
		return nil
	})
	run("8e2e", func() error {
		rows, mean, err := cfg.Fig8EndToEnd()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig8EndToEnd(rows, mean))
		return nil
	})
	run("e2e", func() error {
		rows, mean, err := cfg.E2E(nil)
		if err != nil {
			return err
		}
		if err := writeJSON("e2e", struct {
			Rows       []experiments.E2ERow
			MeanRatio  float64
			RoundTrips []int64
		}{rows, mean, experiments.E2ERoundTrips}); err != nil {
			return err
		}
		fmt.Println(experiments.RenderE2E(rows, mean))
		return nil
	})
	run("9", func() error {
		rows, means, err := cfg.Fig9()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVFig9(rows))
			return nil
		}
		fmt.Println(experiments.RenderFig9(rows, means))
		return nil
	})
	run("10", func() error {
		rows, means, predicted, err := cfg.Fig10()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVFig10(rows))
			return nil
		}
		fmt.Println(experiments.RenderFig10(rows, means, predicted))
		return nil
	})
	run("11", func() error {
		rows, err := cfg.Fig11()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVBatchRows("ideal", rows))
			return nil
		}
		fmt.Println(experiments.RenderBatchRows("Fig. 11: batch-size sensitivity vs Ideal Non-PIM", "IdealNonPIM", rows))
		return nil
	})
	run("12", func() error {
		rows, err := cfg.Fig12()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVBatchRows("gpu", rows))
			return nil
		}
		fmt.Println(experiments.RenderBatchRows("Fig. 12: batch-size sensitivity vs GPU", "GPU", rows))
		return nil
	})
	run("13", func() error {
		rows, mean, err := cfg.Fig13()
		if err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVFig13(rows))
			return nil
		}
		fmt.Println(experiments.RenderFig13(rows, mean))
		return nil
	})
	run("model", func() error {
		rows, err := cfg.ModelValidation()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderModelValidation(rows))
		return nil
	})
	run("channels", func() error {
		rows, err := cfg.ChannelScaling()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderChannelScaling(rows))
		return nil
	})
	run("multitenant", func() error {
		r, err := cfg.MultiTenant()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderMultiTenant(r))
		return nil
	})
	run("serving", func() error {
		points, sum, err := cfg.Serving()
		if err != nil {
			return err
		}
		if err := writeJSON("serving", struct {
			Points  []experiments.ServingPoint
			Summary experiments.ServingSummary
		}{points, sum}); err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVServing(points))
			return nil
		}
		fmt.Println(experiments.RenderServing(points, sum))
		return nil
	})
	run("cluster", func() error {
		points, sum, err := cfg.Cluster()
		if err != nil {
			return err
		}
		if err := writeJSON("cluster", struct {
			Points  []experiments.ClusterPoint
			Summary experiments.ClusterSummary
		}{points, sum}); err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVCluster(points))
			return nil
		}
		fmt.Println(experiments.RenderCluster(points, sum))
		return nil
	})
	run("fault", func() error {
		points, sum, err := cfg.FaultCampaign()
		if err != nil {
			return err
		}
		if err := writeJSON("fault", struct {
			Points  []experiments.FaultPoint
			Summary experiments.FaultSummary
		}{points, sum}); err != nil {
			return err
		}
		if csv {
			fmt.Print(experiments.CSVFault(points))
			return nil
		}
		fmt.Println(experiments.RenderFault(points, sum))
		return nil
	})
	run("coexist", func() error {
		points, err := cfg.Coexistence()
		if err != nil {
			return err
		}
		if err := writeJSON("coexist", struct {
			Points      []experiments.CoexistPoint
			Intensities []float64
		}{points, experiments.CoexistIntensities}); err != nil {
			return err
		}
		fmt.Println(experiments.RenderCoexistence(points))
		return nil
	})
	run("families", func() error {
		rows, err := cfg.Families()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFamilies(rows))
		return nil
	})
	run("noreuse", func() error {
		rows, err := cfg.NoReuse()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderNoReuse(rows))
		return nil
	})
	if *verify {
		// Runners fail fast on the first violation, so reaching this line
		// means every checked command was clean.
		fmt.Fprintf(os.Stderr, "conformance: %d commands checked, 0 violations\n",
			conformance.TotalCommandsChecked())
	}
	stopProfiles()
}
