// Package host implements Newton's host-side memory controller: the tiled
// matrix-vector schedule of Algorithm 1, issued as AiM commands against
// the simulated DRAM channels, with every interface optimization from the
// paper individually toggleable so the Fig. 9 ablation can be reproduced.
// It also provides the Ideal Non-PIM baseline: an infinite-compute host
// that perfectly streams the matrix over the external DRAM interface,
// its ACT/RD/PRE stream issued by a Controller like Newton's commands.
package host

import (
	"runtime"

	"newton/internal/layout"
	"newton/internal/mem"
)

// Options selects which of Newton's optimizations are active. The zero
// value is the fully de-optimized Non-opt-Newton of the paper's Fig. 8/9;
// Newton() turns everything on.
type Options struct {
	// GangedCompute makes one compute command operate in all banks at
	// once instead of issuing per-bank commands (paper §III-D; the
	// largest single win, a 16x command-bandwidth reduction).
	GangedCompute bool
	// ComplexCommands fuses the global-buffer broadcast, the filter
	// column read, and the multiply-add into the single COMP command
	// instead of three simple commands (a further 3x reduction).
	ComplexCommands bool
	// Reuse selects the DRAM-row-wide chunk-interleaved matrix layout
	// and column-major tile traversal that reuses each loaded input
	// chunk across all matrix rows (paper §III-A). When false the
	// row-major layout is used and the input chunk is re-fetched for
	// every set of matrix rows (the Newton-no-reuse schedule).
	Reuse bool
	// GangedActivation activates a four-bank cluster with one G_ACT
	// command instead of four per-bank ACTs (paper §III-D).
	GangedActivation bool
	// NormExposureCycles is the exposed host-side latency per layer for
	// batch normalization: the paper hides all but the first tile's
	// normalization under Newton's compute (§III-C), so a model run
	// charges this once per normalized layer. The sentinel AutoNormExposure
	// derives it from the geometry: the next layer cannot start until the
	// first global-buffer chunk of the normalized vector is ready, so the
	// exposure is one chunk's worth of host normalization work.
	NormExposureCycles int64
	// LatchesPerBank is the number of result latches per bank (1 in the
	// shipped design). With 4 and Reuse off, the schedule is the §III-C
	// intermediate design point: the row-major layout's low output
	// traffic, with the input chunk reused among four matrix rows per
	// fetch instead of one. Zero means 1.
	LatchesPerBank int
	// OverlapBufferLoad interleaves global-buffer GWRITEs (column bus)
	// with row activations (row bus) instead of serializing them. This
	// is this implementation's scheduler refinement, not one of the
	// paper's five optimizations: the paper reports not pursuing overlap
	// (§III-F), so the Fig. 9 ladder reproduces their steps without it
	// and appends it as an explicit extra design point.
	OverlapBufferLoad bool
	// Verify attaches an independent conformance checker
	// (internal/conformance) to every channel's command stream and fails
	// the run on the first timing or protocol violation. The checker
	// re-derives every constraint from the dram.Config on its own, so it
	// catches scheduler bugs the channel's own checker would co-sign.
	Verify bool
	// Oracle selects the reference mode of the controller's one
	// command issuer, for every command a Controller method sends:
	// COMP and COMP_BK use the reference arithmetic (DecodeInto then
	// AccumulateLatch, COMP by COMP) instead of the row step. Timing and
	// the refresh policy have one implementation either way. The two
	// modes are byte-identical in outputs, cycles, stats, obs
	// expositions and command streams; Oracle is the reference the
	// differential tests and FuzzEventCore compare the default mode
	// against.
	Oracle bool
	// QoS selects how the shared channels are arbitrated between AiM
	// work and an attached conventional workload (AttachTraffic). The
	// zero value is PIM-priority: conventional requests wait for runs to
	// finish, so a controller without traffic — or with the default
	// policy — schedules exactly as before. Validated at AttachTraffic.
	QoS mem.QoS
	// Parallel controls how many channels RunMVM, each masked ISR
	// instruction (ForEachChannel) and Place's preload simulate
	// concurrently. It is purely a simulator-speed knob: channels share
	// no simulator state (paper §III — per-channel engines, clocks,
	// refresh deadlines and observers), each channel of a run writes a
	// disjoint set of output rows, a masked instruction's channels only
	// read the frontend's registers, and a channel's preload writes only
	// its own banks, so results, stats, stored rows and conformance
	// verdicts are byte-identical at any setting. Zero (the default) sizes the worker
	// pool to GOMAXPROCS; a positive value caps it; ParallelOff forces
	// the serial reference path. With a Trace hook installed, runs and
	// instructions always execute serially so the hook observes one
	// deterministic global order.
	Parallel int
}

// ParallelOff disables parallel channel simulation (Options.Parallel).
const ParallelOff = -1

// Workers resolves the Parallel setting to a worker-pool size.
func (o Options) Workers() int {
	switch {
	case o.Parallel == ParallelOff:
		return 1
	case o.Parallel > 0:
		return o.Parallel
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// AutoNormExposure asks the controller to derive the exposed
// normalization latency from the geometry (one chunk of elements at
// HostNormRate elements per cycle).
const AutoNormExposure int64 = -1

// HostNormRate is the host's normalization throughput in elements per
// cycle (a modest SIMD unit), used by AutoNormExposure.
const HostNormRate = 8

// NormExposure resolves the per-layer exposed normalization latency for
// a geometry with the given elements per DRAM-row chunk.
func (o Options) NormExposure(chunkElems int) int64 {
	if o.NormExposureCycles == AutoNormExposure {
		return int64(chunkElems / HostNormRate)
	}
	return o.NormExposureCycles
}

// Latches returns the effective latch count.
func (o Options) Latches() int {
	if o.LatchesPerBank < 1 {
		return 1
	}
	return o.LatchesPerBank
}

// QuadLatch returns the §III-C intermediate design point: every
// interface optimization on, row-major layout, four result latches per
// bank. The paper found it performs "virtually similarly" to full-reuse
// Newton while costing extra latch area, and rejected it.
func QuadLatch() Options {
	o := Newton()
	o.Reuse = false
	o.LatchesPerBank = 4
	return o
}

// Newton returns the full Newton design: every optimization on. The
// aggressive tFAW is a timing-preset concern (dram.AiMTiming), not an
// Options field, because it changes the DRAM die, not the controller.
func Newton() Options {
	return Options{
		GangedCompute:      true,
		ComplexCommands:    true,
		Reuse:              true,
		GangedActivation:   true,
		OverlapBufferLoad:  true,
		NormExposureCycles: 100,
	}
}

// NonOpt returns the fully de-optimized baseline of Fig. 8/9.
func NonOpt() Options {
	return Options{NormExposureCycles: 100}
}

// NoReuse returns the Newton-no-reuse variant of §III-C: every interface
// optimization on, but the row-major layout with per-tile input re-fetch.
func NoReuse() Options {
	o := Newton()
	o.Reuse = false
	return o
}

// LayoutKind returns the matrix layout implied by the options.
func (o Options) LayoutKind() layout.Kind {
	if o.Reuse {
		return layout.Interleaved
	}
	return layout.RowMajor
}
