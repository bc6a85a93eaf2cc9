package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// tracer records a traced pass's CPU profile and allocation counts.
type tracer struct {
	prof bytes.Buffer
	ms0  runtime.MemStats
}

// startTrace starts the CPU profile; the caller defers
// pprof.StopCPUProfile, which is a no-op after stop.
func startTrace() (*tracer, error) {
	tr := &tracer{}
	runtime.ReadMemStats(&tr.ms0)
	if err := pprof.StartCPUProfile(&tr.prof); err != nil {
		return nil, err
	}
	return tr, nil
}

// stop ends the profile and stores its readings in p.
func (tr *tracer) stop(p *pass) error {
	pprof.StopCPUProfile()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.allocBytes = float64(ms1.TotalAlloc - tr.ms0.TotalAlloc)
	p.allocObjects = float64(ms1.Mallocs - tr.ms0.Mallocs)
	shares, err := cpuLayers(tr.prof.Bytes())
	if err != nil {
		return err
	}
	p.cpu = shares
	return nil
}

// layerPackages are the module packages reported as their own cpu.<pkg>
// layer. Samples charged to any other module package (the public facade,
// trace, model, chaos, work, ...) land in cpu.other.
var layerPackages = []string{
	"sim", "netsim", "pipeline", "cluster", "profile", "bwe", "partition",
	"autopipe", "meta", "nn", "tensor", "rl",
}

// cpuLayers decodes a CPU profile written by runtime/pprof and returns
// each layer's share of the sampled CPU time, in percent. A sample is
// charged to the innermost frame (inlined frames included) that belongs
// to this module, so allocation and map time lands on the layer that
// caused it; frames of the benchmark's own package charge cpu.bench; a
// sample with neither charges cpu.runtime.
func cpuLayers(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	layerOf := map[uint64]string{} // location id -> layer, "" if none
	for id, loc := range p.locations {
		layer := ""
		for _, fn := range loc {
			if layer = layerOfFunc(p.strings[p.funcName[fn]]); layer != "" {
				break
			}
		}
		layerOf[id] = layer
	}
	shares := map[string]float64{"cpu.runtime": 0, "cpu.other": 0, "cpu.bench": 0}
	for _, pkg := range layerPackages {
		shares["cpu."+pkg] = 0
	}
	var total float64
	for _, s := range p.samples {
		layer := "cpu.runtime"
		for _, loc := range s.locs {
			if l := layerOf[loc]; l != "" {
				layer = l
				break
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	for k, v := range shares {
		shares[k] = 100 * ratio(v, total)
	}
	return shares, nil
}

// layerOfFunc maps a profile function name such as
// "autopipe/internal/netsim.(*Network).reschedule" to its layer metric,
// or "" for frames outside this module and the benchmark.
func layerOfFunc(name string) string {
	if strings.HasPrefix(name, "main.") {
		return "cpu.bench"
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := name[:slash+1+dot]
	switch {
	case pkg == "autopipe":
		return "cpu.other"
	case strings.HasPrefix(pkg, "autopipe/internal/"):
		short := strings.TrimPrefix(pkg, "autopipe/internal/")
		for _, l := range layerPackages {
			if short == l {
				return "cpu." + l
			}
		}
		return "cpu.other"
	}
	return ""
}

// profile is the part of the pprof protobuf message cpuLayers reads.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	funcName  map[uint64]int64    // function id -> string-table index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

// decodeProfile reads the fields of profile.proto that attribution
// needs: Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := eachField(sub, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, sub)
				case 2:
					return appendPacked(&vals, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
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
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that arrives either packed
// (sub holds the varints) or as a single unpacked value v.
func appendPacked(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or, for length-delimited fields,
// its bytes (sub is nil for varints).
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}
