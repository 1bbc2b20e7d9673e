package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the cpu.* per-layer metrics: one per simulator layer,
// "gc" for garbage collection wherever it runs, "repo_other" for the
// remaining repository packages (the root façade, par, addr, ...) and
// "outside" for everything else (runtime, standard library, harness).
var cpuBuckets = []string{
	"layout", "bf16", "aim", "dram", "host", "mem", "nn", "isr", "serve", "cluster",
	"gc", "repo_other", "outside",
}

var layerBucket = func() map[string]bool {
	m := map[string]bool{}
	for _, b := range cpuBuckets[:10] {
		m[b] = true
	}
	return m
}()

// gcFrames mark a stack as garbage-collection work.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcAssistAlloc1":    true,
	"runtime.gcDrain":           true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
	"runtime.markroot":          true,
}

// cpuShares decodes a runtime/pprof CPU profile and splits its CPU time
// (ns) into cpuBuckets: a stack goes to "gc" if any frame is GC work,
// otherwise to the repository package nearest its leaf. The shares sum
// to the returned total.
func cpuShares(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	vi := 0
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	shares := map[string]float64{}
	var total float64
	var stack []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		v := float64(s.values[vi])
		shares[bucketOf(stack)] += v
		total += v
	}
	return shares, total, nil
}

// bucketOf assigns one leaf-first stack of function names to a bucket.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if pkg != "newton" && !strings.HasPrefix(pkg, "newton/") {
			continue
		}
		if name := strings.TrimPrefix(pkg, "newton/internal/"); layerBucket[name] {
			return name
		}
		return "repo_other"
	}
	return "outside"
}

// packageOf returns the import path of a symbol such as
// "newton/internal/host.(*Controller).RunMVM" or "newton/internal/par.Map[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile holds the parts of a pprof profile.proto the buckets need.
type profile struct {
	strings     []string
	sampleTypes []int64 // string index of each sample type's name
	samples     []pSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
}

type pSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, f pbField) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(f.data, func(n int, g pbField) error {
				if n == valueTypeType {
					typ = int64(g.varint)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s pSample
			err := eachField(f.data, func(n int, g pbField) error {
				switch n {
				case sampleLocationID:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case sampleValue:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(n int, g pbField) error {
				switch n {
				case locationID:
					id = g.varint
				case locationLine:
					return eachField(g.data, func(m int, h pbField) error {
						if m == lineFunction {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(f.data, func(n int, g pbField) error {
				switch n {
				case functionID:
					id = g.varint
				case functionName:
					name = int64(g.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	return p, err
}

// pbField is one protobuf field: a varint (wire type 0) or the payload
// of a length-delimited field (wire type 2).
type pbField struct {
	wire   int
	varint uint64
	data   []byte
}

// uints yields a repeated integer field's values, packed or not.
func (f pbField) uints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.varint)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message.
func eachField(b []byte, fn func(num int, f pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		f := pbField{wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, f.wire)
		}
		if err := fn(int(key>>3), f); err != nil {
			return err
		}
	}
	return nil
}
