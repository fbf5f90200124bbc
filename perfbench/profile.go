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

// The CPU profile is attributed to the simulator's modules by reading the
// pprof protobuf that runtime/pprof writes. Only the fields attribution
// needs are decoded: each sample's location IDs and sample count, each
// location's (possibly inlined) lines, and each function's name.

// otherLayer collects samples whose innermost repo frame is in a package
// outside the layer list: machine assembly, snapshot encoding, the cost
// model, and the benchmark's own hook.
const (
	runtimeLayer = "runtime"
	otherLayer   = "other"
)

// layers are the modules host time is attributed to, each an
// internal/<pkg> name (apps covers every internal/apps/<app> package).
var layers = []string{"sim", "memsim", "coherence", "ni", "am", "cmmd",
	"parmacs", "stats", "apps", "machine", runtimeLayer, otherLayer}

// layerOf maps a function name to its layer, or "" for a frame outside
// the repo (Go runtime and standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return otherLayer // the benchmark's own code
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return otherLayer
}

// attribute charges each sample of a gzipped CPU profile to the innermost
// repo frame on its stack; stacks with no repo frame count as runtime. It
// returns sample counts per layer and the total.
func attribute(prof []byte) (map[string]int64, int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		layer := runtimeLayer
	stack:
		for _, id := range s.locs { // leaf first
			for _, fid := range p.locLines[id] { // innermost inlined first
				if l := layerOf(p.funcNames[fid]); l != "" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += s.count
		total += s.count
	}
	return byLayer, total, nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples   []profSample
	locLines  map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames map[uint64]string   // function ID -> name
}

var errTruncated = errors.New("pprof: truncated message")

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{} // function ID -> string index
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			return p.parseSample(b)
		case 4: // location
			return p.parseLocation(b)
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("pprof: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcNames[id] = strs[si]
	}
	return p, nil
}

func (p *profile) parseSample(b []byte) error {
	var s profSample
	first := true
	err := eachField(b, func(num int, v uint64, packed []byte) error {
		switch num {
		case 1: // location_id
			if packed == nil {
				s.locs = append(s.locs, v)
				return nil
			}
			return eachVarint(packed, func(x uint64) { s.locs = append(s.locs, x) })
		case 2: // value: the first is the sample count
			if packed == nil {
				if first {
					s.count, first = int64(v), false
				}
				return nil
			}
			return eachVarint(packed, func(x uint64) {
				if first {
					s.count, first = int64(x), false
				}
			})
		}
		return nil
	})
	p.samples = append(p.samples, s)
	return err
}

func (p *profile) parseLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // line
			return eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	p.locLines[id] = fns
	return err
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5: // 32-bit
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
