package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each package's flat share of the
// CPU samples, keyed by layer name (see layerOf), plus the share under
// "gc" of samples whose stack runs inside the garbage collector.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return flatShares(p.buf.Bytes())
}

// putShares records the CPU share of every layer the manifest names a
// cpu_share for; a layer with no samples reads 0.
func putShares(r *run, shares map[string]float64) {
	for _, m := range r.manifest {
		if layer, ok := strings.CutSuffix(m.Name, ".cpu_share"); ok {
			r.put(m.Name, "ratio", shares[layer])
		}
	}
}

// generatorLabel is the pprof label the deploy-rx generator goroutine
// carries while traced (value "true"): its samples count as perfbench
// whatever package they run in, so the generator's own decoding of the
// node's responses does not inflate the deploy and wire shares.
const generatorLabel = "perfbench_generator"

// layerOf maps a symbol name to its layer: the last element of a
// repro/internal package path, "runtime" for the Go runtime, "perfbench"
// for the benchmark's own code, and the package path for the rest of
// the standard library.
func layerOf(fn string) string {
	// Type arguments of generic symbols can name other packages; the
	// symbol's own package precedes them.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "perfbench"
	}
	return pkg
}

// gcRoots are the runtime entry points of garbage-collector work: a
// sample with one of them on its stack is GC time.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
}

// flatShares decodes a gzipped profile.proto CPU profile and attributes
// every sample to the layer of its leaf function (the innermost inlined
// frame of the first location). It also reports under "gc" the share of
// samples with a gcRoots frame anywhere on the stack.
func flatShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		value  int64
		labels [][2]int64 // (key, value) string indexes
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName = map[uint64]int64{}    // function id → string index
		strs     []string
	)
	err = eachField(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					ids, err := varints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vs, err := varints(v, b)
					vals = append(vals, vs...)
					return err
				case 3: // Label{key, str}: string indexes
					var key, str int64
					err := eachField(b, func(tag int, v uint64, _ []byte) error {
						switch tag {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{key, str})
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					id = v
				case 4:
					return eachField(b, func(tag int, v uint64, _ []byte) error {
						if tag == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if idx, ok := funcName[fn]; ok && idx > 0 && int(idx) < len(strs) {
			return strs[idx]
		}
		return "unknown"
	}
	generator := func(s sample) bool {
		for _, l := range s.labels {
			if l[0] > 0 && l[1] > 0 && int(l[0]) < len(strs) && int(l[1]) < len(strs) &&
				strs[l[0]] == generatorLabel && strs[l[1]] == "true" {
				return true
			}
		}
		return false
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "unknown"
		if len(s.locs) > 0 && len(locFuncs[s.locs[0]]) > 0 {
			layer = layerOf(name(locFuncs[s.locs[0]][0]))
		}
		if generator(s) {
			layer = "perfbench"
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	gc:
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				if gcRoots[name(fn)] {
					shares["gc"] += float64(s.value)
					break gc
				}
			}
		}
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (wire type 0) or its bytes (wire
// type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(tag int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		tag, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(tag, v, body); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: the single value
// when it arrived unpacked (b == nil), else the packed run in b.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
