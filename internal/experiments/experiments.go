// Package experiments reproduces every table and figure of the paper's
// evaluation (§V) and its side studies. Each study has a runner
// returning typed rows and a builder turning them into one Table, which
// renders the study's text, CSV and JSON forms; newton bench and the
// repository's bench_test.go both drive these runners, so the published
// numbers regenerate from one code path.
package experiments

import (
	"math"

	"newton/internal/bf16"
	"newton/internal/dram"
	"newton/internal/gpu"
	"newton/internal/host"
	"newton/internal/layout"
	"newton/internal/workloads"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Channels in the memory system (paper: 24).
	Channels int
	// Banks per channel (paper: 16).
	Banks int
	// Seed for synthetic weights and inputs.
	Seed int64
	// Functional makes the ideal baseline fold its streamed data into
	// the product, validating its data path (slower; timing
	// identical). Newton's controllers always compute.
	Functional bool
	// Benchmarks overrides the Table II layer set (nil = full table);
	// tests use a reduced set to stay fast.
	Benchmarks []workloads.Bench
	// ServingN overrides the serving study's arrivals per load
	// (0 = 20000); tests use a shorter stream. The fault campaign's
	// availability streams reuse it (0 = 2000 there).
	ServingN int
	// FaultBERs overrides the fault campaign's BER sweep (nil = the
	// package FaultBERs); FaultMaxPerWord caps injected flips per
	// 64-bit word (0 = uncapped).
	FaultBERs       []float64
	FaultMaxPerWord int
	// Verify runs every simulation under the independent conformance
	// checker (internal/conformance): any timing or protocol violation
	// fails the experiment (newton bench -verify).
	Verify bool
	// Oracle puts every controller — Newton's and the ideal
	// baseline's — in its issuer's reference mode (host.Options.Oracle:
	// reference arithmetic, REF-by-REF refresh). The two modes
	// are byte-identical across every figure; Oracle is the reference
	// TestOracleKnobIdentity compares the figures against.
	Oracle bool
	// Serial forces every simulation and sweep onto the serial reference
	// path: controllers simulate channels one at a time
	// (host.ParallelOff) and figure runners stop fanning independent
	// design points onto the worker pool. The default exploits the
	// share-nothing structure at both levels; results are byte-identical
	// either way (the property TestSerialKnobIdentity and the host
	// package's parallel tests pin), so Serial exists only for A/B
	// benchmarking and for bisecting a suspected parallelism bug
	// (newton bench -serial).
	Serial bool
}

// Default returns the paper's evaluation configuration.
func Default() Config {
	return Config{Channels: 24, Banks: 16, Seed: 42}
}

// hostParallel resolves the controller-level Parallel option for the
// experiment's Serial setting.
func (c Config) hostParallel() int {
	if c.Serial {
		return host.ParallelOff
	}
	return 0
}

// sweepWorkers sizes the figure-level worker pool. Every design point of
// a sweep (a benchmark layer, a BER x protection cell, a DRAM family)
// builds its own controller, channels and seeded matrices, so points
// share nothing and run concurrently; Serial collapses the pool to one
// worker, which par.ForEachErr executes as a plain ascending loop.
func (c Config) sweepWorkers() int {
	if c.Serial {
		return 1
	}
	return 0 // GOMAXPROCS
}

// benchmarks returns the active layer set.
func (c Config) benchmarks() []workloads.Bench {
	if c.Benchmarks != nil {
		return c.Benchmarks
	}
	return workloads.TableII()
}

// dramConfig builds the simulator configuration for a bank count,
// choosing AiM or conventional timing.
func (c Config) dramConfig(banks int, aggressiveTFAW bool) dram.Config {
	geo := dram.HBM2EGeometry(c.Channels)
	geo.Banks = banks
	if banks < geo.BanksPerCluster {
		geo.BanksPerCluster = banks
	}
	t := dram.ConventionalTiming()
	if aggressiveTFAW {
		t = dram.AiMTiming()
	}
	return dram.Config{Geometry: geo, Timing: t}
}

// inputFor deterministically generates an input vector for a benchmark.
func (c Config) inputFor(cols int) bf16.Vector {
	m := layout.RandomMatrix(cols, 1, c.Seed+1)
	return bf16.Vector(m.Data)
}

// runNewtonVariant simulates one benchmark under one option set and
// returns the run. Timing preset follows opts: the de-optimized design
// points before "aggressive tFAW" use conventional timing.
func (c Config) runNewtonVariant(b workloads.Bench, opts host.Options, aggressiveTFAW bool, banks int) (*host.Result, error) {
	opts.Verify = opts.Verify || c.Verify
	opts.Oracle = opts.Oracle || c.Oracle
	opts.Parallel = c.hostParallel()
	ctrl, err := host.NewController(c.dramConfig(banks, aggressiveTFAW), opts)
	if err != nil {
		return nil, err
	}
	m := layout.RandomMatrix(b.Rows, b.Cols, c.Seed)
	p, err := ctrl.Place(m)
	if err != nil {
		return nil, err
	}
	return ctrl.RunMVM(p, c.inputFor(b.Cols))
}

// idealHost builds an Ideal Non-PIM baseline with the experiment-wide
// functional, verification, reference-mode and parallelism settings
// applied.
func (c Config) idealHost(cfg dram.Config) (*host.IdealNonPIM, error) {
	h, err := host.NewIdealNonPIM(cfg, host.Options{Verify: c.Verify, Oracle: c.Oracle, Parallel: c.hostParallel()})
	if err != nil {
		return nil, err
	}
	h.Compute = c.Functional
	return h, nil
}

// runIdeal simulates the Ideal Non-PIM on one benchmark.
func (c Config) runIdeal(b workloads.Bench, banks int) (*host.Result, error) {
	h, err := c.idealHost(c.dramConfig(banks, true))
	if err != nil {
		return nil, err
	}
	m := layout.RandomMatrix(b.Rows, b.Cols, c.Seed)
	p, err := h.Place(m)
	if err != nil {
		return nil, err
	}
	return h.RunMVM(p, c.inputFor(b.Cols))
}

// GeoMean returns the geometric mean of positive values.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

// paperNewton returns the paper's full design point: the five published
// optimizations, without this implementation's buffer-load overlap
// refinement, so reproduced figures measure the paper's controller. The
// overlap appears only as Fig. 9's explicit "+overlap*" step (and is the
// library default outside the reproduction suite).
func (c Config) paperNewton() host.Options {
	o := host.Newton()
	o.OverlapBufferLoad = false
	o.Verify = c.Verify
	o.Oracle = c.Oracle
	o.Parallel = c.hostParallel()
	return o
}

// paperVariant strips the overlap refinement from any preset.
func (c Config) paperVariant(o host.Options) host.Options {
	o.OverlapBufferLoad = false
	o.Verify = o.Verify || c.Verify
	o.Oracle = o.Oracle || c.Oracle
	o.Parallel = c.hostParallel()
	return o
}

// gpuModel returns the GPU baseline consistent with the experiment's
// memory system.
func (c Config) gpuModel() gpu.Model {
	g := gpu.TitanV()
	g.MemChannels = c.Channels
	return g
}
