//go:build !amd64

package aim

// useAVX2 is false off amd64: AccumulateColumn always runs column16.
var useAVX2 = false

// column16AVX2 exists so AccumulateColumn compiles on every
// architecture; with useAVX2 false it is never reached.
func column16AVX2(w *[32]byte, in *[16]float32) float32 {
	panic("aim: column16AVX2 called off amd64")
}
