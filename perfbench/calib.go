package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared, and their speed for
// the simulator's work drifts by ±20% over tens of seconds as other
// tenants load the shared last-level cache and memory. A run is too short
// to average that out, so the loop times a fixed set of harness kernels
// every calibEvery and scales every host-time metric by how fast the
// kernels ran against their nominal times. The kernels stand for the
// simulator's mix: arithmetic in L1, a stream and dependent random reads
// over a buffer the size of the simulated device's working set. They run
// on every P at once, as the simulator's channel pool does. Run on one
// goroutine they missed slowdowns of one vCPU of the pair: over ten
// coexist-qos processes at one seed, op_p50_ms varied by 19% raw
// (coefficient of variation), 11% calibrated by the kernels on one
// goroutine and 8% by the kernels on both; mvm-cold 10%, 8% and 6%.
const (
	calibEvery    = 250 * time.Millisecond
	calibBufBytes = 64 << 20
)

// calibNominalMs are about the kernels' median times on a 2-vCPU Xeon
// (4 MiB L2 per core); only their ratios to a run's times matter, so any
// fixed values would do.
var calibNominalMs = [3]float64{6.1, 3.9, 6.2}

// calibrator times the kernels and keeps every sample.
type calibrator struct {
	buf     []uint32
	small   []float32
	samples [3][]float64
	at      []int // the op each round of samples was taken before
	last    time.Time
	sink    uint32
}

// newCalibrator maps the kernels' buffer outside the Go heap, so that it
// does not raise the garbage collector's heap goal for the simulator.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, calibBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffer: %w", err)
	}
	c := &calibrator{buf: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibBufBytes/4), small: make([]float32, 4096)}
	x := uint32(1)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.buf[i] = x
	}
	for i := range c.small {
		c.small[i] = float32(i%977) * 0.001
	}
	return c, nil
}

// maybe runs the kernels before op if calibEvery has passed since the
// last time.
func (c *calibrator) maybe(op int) {
	if time.Since(c.last) < calibEvery {
		return
	}
	n := runtime.GOMAXPROCS(0)
	for k, kernel := range []func(g int) uint32{c.arith, c.stream, c.chase} {
		// A sample is the mean of the goroutines' times: the pool hands
		// out channels one at a time, so its throughput follows the mean
		// speed of the vCPUs, not the slowest one.
		ms := make([]float64, n)
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				v := kernel(g)
				ms[g] = float64(time.Since(t0)) / 1e6
				atomic.AddUint32(&c.sink, v)
			}()
		}
		wg.Wait()
		c.samples[k] = append(c.samples[k], sum(ms)/float64(n))
	}
	c.at = append(c.at, op)
	c.last = time.Now()
}

// factor is how much slower than nominal the machine ran, by this
// calibrator's samples.
func (c *calibrator) factor() float64 { return calibFactor(c.samples) }

// factorOver is the factor by the samples taken before ops in
// [first, end).
func (c *calibrator) factorOver(first, end int) float64 {
	var s [3][]float64
	for j, op := range c.at {
		if op >= first && op < end {
			for k := range s {
				s[k] = append(s[k], c.samples[k][j])
			}
		}
	}
	return calibFactor(s)
}

// calibFactor is the geometric mean over the kernels of median sample
// time / nominal time. It is 1 when no sample was taken.
func calibFactor(samples [3][]float64) float64 {
	if len(samples[0]) == 0 {
		return 1
	}
	logSum := 0.0
	for k, s := range samples {
		logSum += math.Log(quantile(s, 0.5) / calibNominalMs[k])
	}
	return math.Exp(logSum / float64(len(samples)))
}

// arith rounds float32 values to bfloat16 in a dependent chain over an
// L1-resident buffer.
func (c *calibrator) arith(int) uint32 {
	var acc float32
	for r := 0; r < 300; r++ {
		for i, v := range c.small {
			x := v*1.0009 + acc*0.5 + float32(i)
			acc = math.Float32frombits(math.Float32bits(x) &^ 0xffff)
		}
	}
	return math.Float32bits(acc)
}

// stream reads every 16th word of half the buffer, a different half for
// goroutine g than for g+1.
func (c *calibrator) stream(g int) uint32 {
	var acc uint32
	half := len(c.buf) / 2
	for i := g % 2 * half; i < (g%2+1)*half; i += 16 {
		acc += c.buf[i]
	}
	return acc
}

// chase follows 40000 dependent pseudo-random reads through the buffer,
// from a start of goroutine g's own.
func (c *calibrator) chase(g int) uint32 {
	idx := uint32(g) * 0x9e3779b9
	mask := uint32(len(c.buf) - 1)
	for i := 0; i < 40000; i++ {
		idx = c.buf[idx&mask] ^ uint32(i)
	}
	return idx
}
