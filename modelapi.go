package newton

import (
	"newton/internal/isr"
	"newton/internal/nn"
	"newton/internal/workloads"
)

// The model-description types are the nn package's, re-exported so
// library users can build and run multi-layer inferences without
// reaching into internal packages.
type (
	// Layer is one fully-connected layer: a Rows x Cols weight matrix,
	// an activation, and optional batch normalization.
	Layer = nn.Layer
	// Model is a chain of layers plus the compute-bound fraction that
	// runs outside Newton (AlexNet's convolutions).
	Model = nn.Model
	// Activation selects a neural activation function.
	Activation = nn.Activation
)

// Activation function values.
const (
	ActNone    = nn.None
	ActReLU    = nn.ReLU
	ActSigmoid = nn.Sigmoid
	ActTanh    = nn.Tanh
)

// Paper workloads: the Table II single layers and the end-to-end models
// of Fig. 8.
var (
	// TableII returns the paper's eight benchmark layers (name, rows,
	// cols).
	TableII = workloads.TableII
	// GNMTModel, BERTModel, AlexNetModel and DLRMModel return the
	// end-to-end model graphs.
	GNMTModel    = workloads.GNMT
	BERTModel    = workloads.BERT
	AlexNetModel = workloads.AlexNet
	DLRMModel    = workloads.DLRM
)

// Benchmark is one Table II row.
type Benchmark = workloads.Bench

// PlacedModel is a model whose layer weights are resident in a system's
// (or baseline's) DRAM.
type PlacedModel struct {
	pm *nn.PlacedModel
	// owner is the System or IdealBaseline that loaded the model.
	owner any
}

// on checks that sys loaded the model; every method taking a
// PlacedModel calls it first.
func (p *PlacedModel) on(sys any) error {
	if p == nil || p.owner != sys {
		return ErrNotLoadedHere
	}
	return nil
}

// Spec returns the model description.
func (p *PlacedModel) Spec() Model { return p.pm.Spec }

// ModelResult reports one end-to-end inference: the final activation
// vector, the end-to-end and per-layer cycles, and the refreshes during
// the run (the effect behind DLRM's end-to-end speedup trailing its
// single-layer one).
type ModelResult = nn.RunResult

// LoadModel generates deterministic weights for the model's layers
// (seeded, so a System and an IdealBaseline given the same seed hold
// identical weights) and loads them into the system's DRAM.
func (s *System) LoadModel(m Model, seed int64) (*PlacedModel, error) {
	pm, err := nn.PlaceModel(s.ctrl, m, seed)
	if err != nil {
		return nil, err
	}
	return &PlacedModel{pm: pm, owner: s}, nil
}

// RunModel executes an end-to-end inference on the system.
func (s *System) RunModel(pm *PlacedModel, input []float32) (*ModelResult, error) {
	if err := pm.on(s); err != nil {
		return nil, err
	}
	exposure := s.cfg.hostOptions().NormExposure(s.dcfg.Geometry.RowBytes() / 2)
	return nn.Run(s.ctrl, pm.pm, input, exposure)
}

// LoadModel mirrors System.LoadModel for the ideal baseline.
func (b *IdealBaseline) LoadModel(m Model, seed int64) (*PlacedModel, error) {
	pm, err := nn.PlaceModel(b.h, m, seed)
	if err != nil {
		return nil, err
	}
	return &PlacedModel{pm: pm, owner: b}, nil
}

// RunModel executes an end-to-end inference on the ideal baseline,
// charging the same resolved normalization exposure as System.RunModel.
func (b *IdealBaseline) RunModel(pm *PlacedModel, input []float32) (*ModelResult, error) {
	if err := pm.on(b); err != nil {
		return nil, err
	}
	exposure := b.cfg.hostOptions().NormExposure(b.dcfg.Geometry.RowBytes() / 2)
	return nn.Run(b.h, pm.pm, input, exposure)
}

// ReferenceModelOutput runs the placed model's float32 software oracle
// on the same weights, for validating simulated inferences.
func (p *PlacedModel) ReferenceModelOutput(input []float32) ([]float32, error) {
	return nn.RunReference(p.pm, input)
}

// RunModelWithRoundTrip is RunModel with a host round-trip charged
// between consecutive layers: the result vector leaves the device, is
// reshaped host-side, and is written back before the next layer can
// start. This is the serving cost Newton's ISR path eliminates;
// roundTrip is the charged latency in cycles (nanoseconds).
func (s *System) RunModelWithRoundTrip(pm *PlacedModel, input []float32, roundTrip int64) (*ModelResult, error) {
	if err := pm.on(s); err != nil {
		return nil, err
	}
	exposure := s.cfg.hostOptions().NormExposure(s.dcfg.Geometry.RowBytes() / 2)
	return nn.RunWithRoundTrip(s.ctrl, pm.pm, input, exposure, roundTrip)
}

// CompiledModel is a placed model lowered to one self-contained ISR
// program: the input vector and every resolved DRAM row are embedded,
// so the program replays bit-identically on any device with the same
// geometry (newton-replay -isr accepts Text's output).
type CompiledModel struct {
	prog *isr.Program
}

// Text renders the program in the textual ISR format.
func (c *CompiledModel) Text() string { return isr.EncodeString(c.prog) }

// Instructions returns the program length.
func (c *CompiledModel) Instructions() int { return len(c.prog.Instrs) }

// DeviceModelResult reports one whole-model on-device inference: the
// ModelResult fields, with LayerCycles taken from the program's MARK
// stamps, plus the executed ISR program's length.
type DeviceModelResult = nn.DeviceRunResult

// CompileModel lowers a placed model plus one input vector to an ISR
// program for on-device execution. The program is statically checked
// before it is returned.
func (s *System) CompileModel(pm *PlacedModel, input []float32) (*CompiledModel, error) {
	if err := pm.on(s); err != nil {
		return nil, err
	}
	ex, err := nn.NewExecutor(s.ctrl, pm.pm)
	if err != nil {
		return nil, err
	}
	prog, err := ex.Compile(input)
	if err != nil {
		return nil, err
	}
	return &CompiledModel{prog: prog}, nil
}

// RunModelOnDevice executes an end-to-end inference as a single ISR
// program: the whole layer stack runs on the device with no host
// round-trip between layers (activation and normalization execute at
// the frontend/buffer level), which is the paper's serving mode for
// recurrent and feed-forward stacks.
func (s *System) RunModelOnDevice(pm *PlacedModel, input []float32) (*DeviceModelResult, error) {
	if err := pm.on(s); err != nil {
		return nil, err
	}
	return nn.RunOnDevice(s.ctrl, pm.pm, input)
}
