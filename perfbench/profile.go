package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuModules are the layers whose share of CPU time the traced run
// reports: the metric prefix and the import path whose frames count
// toward it (runtime also takes runtime/... and internal/runtime/...).
var cpuModules = []struct{ name, pkg string }{
	{"simclock", "repro/internal/simclock"},
	{"ignem", "repro/internal/ignem"},
	{"namenode", "repro/internal/dfs/namenode"},
	{"datanode", "repro/internal/dfs/datanode"},
	{"storage", "repro/internal/storage"},
	{"transport", "repro/internal/transport"},
	{"scheduler", "repro/internal/scheduler"},
	{"mapreduce", "repro/internal/mapreduce"},
	{"runtime", "runtime"},
}

// cpuShares reads a CPU profile written by runtime/pprof and returns,
// per module of cpuModules, the fraction of sampled CPU time whose
// innermost frame (after inlining) lies in that module. The profile is
// decoded here rather than through `go tool pprof` so the benchmark
// needs nothing but its own binary at run time.
func cpuShares(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
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

	byModule := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu nanoseconds
		total += v
		fn := p.funcName[p.leafFunc[s.locs[0]]]
		if m := moduleOf(funcPackage(fn)); m != "" {
			byModule[m] += v
		}
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m.name] = ratio(float64(byModule[m.name]), float64(total))
	}
	return out, nil
}

// funcPackage strips the symbol from a fully qualified Go function
// name: "repro/internal/ignem.(*Slave).worker" → "repro/internal/ignem".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func moduleOf(pkg string) string {
	if strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/") {
		return "runtime"
	}
	for _, m := range cpuModules {
		if pkg == m.pkg {
			return m.name
		}
	}
	return ""
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profile is the subset of the pprof protobuf the share computation
// needs: samples, each location's innermost function, and names.
type profile struct {
	samples  []profSample
	leafFunc map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]string // function id → name
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, data)
				case 2:
					for _, x := range appendPacked(nil, wire, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			haveLeaf := false
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first one is the innermost inlined frame
					if haveLeaf {
						return nil
					}
					haveLeaf = true
					return eachField(data, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunc[id] = leaf
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may be encoded
// either packed (wire type 2) or one value per field (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of a protobuf message, handing
// varints in v and length-delimited payloads in data.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
