package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers are the repository's modules a profile sample can be charged
// to, plus the two buckets for samples with no repository frame.
var layers = []string{
	"simkern", "eventq", "dispatcher", "sched", "netsim", "rbcast",
	"consensus", "membership", "fault", "replication", "session", "shard",
	"txn", "pubsub", "load", "monitor", "trace", "metrics", "cluster",
	"go.gc", "go.other",
}

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

const repoPrefix = "hades/internal/"

// layerOf charges a stack (innermost frame first) to the innermost
// frame of a listed repository layer. Frames of other repository
// packages (vtime, storage, heug, ...) count as their caller. A stack
// with no layer frame is GC background work or other Go runtime work.
func layerOf(funcs []string) string {
	for _, f := range funcs {
		if !strings.HasPrefix(f, repoPrefix) {
			continue
		}
		pkg := f[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if isLayer[pkg] {
			return pkg
		}
	}
	for _, f := range funcs {
		if f == "runtime.gcBgMarkWorker" {
			return "go.gc"
		}
	}
	return "go.other"
}

// cpuByLayer decodes a runtime/pprof CPU profile and sums its sampled
// CPU time per layer.
func cpuByLayer(prof []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				funcs = append(funcs, p.strings[p.funcName[fn]])
			}
		}
		// The last value of a CPU sample is its CPU time in ns.
		if len(s.values) > 0 {
			into[layerOf(funcs)] += float64(s.values[len(s.values)-1])
		}
	}
	return nil
}

// allocSnapshot is the sampled allocation profile keyed by stack.
type allocSnapshot map[[32]uintptr]runtime.MemProfileRecord

func takeAllocSnapshot() allocSnapshot {
	// The profile is published as of the last completed GC cycles.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	snap := make(allocSnapshot, n)
	for _, r := range recs[:n] {
		snap[r.Stack0] = r
	}
	return snap
}

// allocByLayer charges the allocations sampled between two snapshots
// to layers, scaling each sample by the inverse of its sampling
// probability at the given rate, as pprof does.
func allocByLayer(before, after allocSnapshot, rate int, into map[string]float64) {
	for stk, r := range after {
		b := r.AllocBytes - before[stk].AllocBytes
		o := r.AllocObjects - before[stk].AllocObjects
		if b <= 0 || o <= 0 {
			continue
		}
		avg := float64(b) / float64(o)
		scale := 1 / (1 - math.Exp(-avg/float64(rate)))
		into[layerOf(stackFuncs(r.Stack()))] += float64(b) * scale
	}
}

func stackFuncs(pcs []uintptr) []string {
	var out []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		out = append(out, f.Function)
		if !more {
			return out
		}
	}
}

// profile is the part of a pprof profile.proto message the attribution
// needs: samples with their location ids and values, each location's
// function ids (inlined frames innermost first), function names and
// the string table.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed protobuf")

// field is one decoded protobuf field: a varint value or a
// length-delimited payload.
type field struct {
	num  int
	v    uint64
	data []byte
	wire int
}

func eachField(b []byte, visit func(field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated integer field, packed or not.
func repeated(f field, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(f field) error {
		switch f.num {
		case 2: // sample
			var s sample
			err := eachField(f.data, func(sf field) error {
				var err error
				switch sf.num {
				case 1:
					s.locs, err = repeated(sf, s.locs)
				case 2:
					var vs []uint64
					vs, err = repeated(sf, nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(f.data, func(lf field) error {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					return eachField(lf.data, func(ln field) error {
						if ln.num == 1 {
							funcs = append(funcs, ln.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(f.data, func(ff field) error {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcName {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
