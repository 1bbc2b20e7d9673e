//go:build !amd64

package aim

// useAVX2 is false off amd64: the 16-lane column step always runs the
// Go loop over column16.
var useAVX2 = false

// columnsAVX2 exists so the MAC step compiles on every architecture;
// with useAVX2 false it is never reached.
func columnsAVX2(w []byte, in []float32, acc float32) (latch float32, folded int) {
	panic("aim: columnsAVX2 called off amd64")
}
