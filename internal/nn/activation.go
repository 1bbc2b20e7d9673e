// Package nn provides the neural-network substrate above raw
// matrix-vector products: activation functions, batch normalization,
// layer and model descriptions matching the paper's workloads, a model
// executor that drives any matrix-vector runner (Newton's controller or
// the Ideal Non-PIM baseline) through a multi-layer inference, and a
// float32 reference implementation the simulations are checked against.
package nn

import (
	"fmt"

	"newton/internal/aim"
	"newton/internal/dram"
)

// Activation identifies a neural activation function (distinct from DRAM
// row activation, as the paper is careful to note). Its values are the
// device's dram.AF* selectors.
type Activation uint8

const (
	// None is the identity.
	None Activation = dram.AFNone
	// ReLU is max(0, x).
	ReLU Activation = dram.AFReLU
	// Sigmoid is 1/(1+e^-x).
	Sigmoid Activation = dram.AFSigmoid
	// Tanh is the hyperbolic tangent.
	Tanh Activation = dram.AFTanh
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case None:
		return "none"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	}
	return fmt.Sprintf("Activation(%d)", uint8(a))
}

// Func returns the scalar function: aim.ActivationFunc, the one
// definition the device's tables and the ISR frontend share, or the
// identity for None.
func (a Activation) Func() func(float32) float32 {
	if f := aim.ActivationFunc(int(a)); f != nil {
		return f
	}
	return func(x float32) float32 { return x }
}

// Apply applies the activation in place.
func (a Activation) Apply(v []float32) {
	if a == None {
		return
	}
	f := a.Func()
	for i := range v {
		v[i] = f(v[i])
	}
}
