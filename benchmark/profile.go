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

// simLabel is the profiler label key the traced pass puts on each
// simulated run.
const simLabel = "sim"

// profiledModules are the layers whose CPU shares the traced run
// reports.
var profiledModules = []string{
	"simx", "netsim", "executor", "core", "spark", "wal",
	"federation", "tenant", "streaming", "monitor",
}

// moduleShares reads a CPU profile and returns each layer's share of its
// samples:
//
//   - <module>.self_frac: samples whose innermost rupam/internal frame
//     belongs to the module;
//   - <module>.incl_frac: samples with any frame of the module;
//   - go_runtime.self_frac: samples with no rupam/internal frame: the
//     runtime working for a simulated run, and the runtime's background
//     workers (garbage collection, sweeping, scavenging);
//   - other.self_frac: samples whose innermost rupam/internal frame is
//     in a package outside profiledModules.
//
// A sample counts only if it carries simLabel or is a background
// worker's, so the benchmark's own work between runs stays out.
func moduleShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	self := map[string]uint64{}
	incl := map[string]uint64{}
	var total uint64
	for _, s := range p.samples {
		count := s.values[0]
		var mods []string // innermost first
		background := false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.funcName(fn)
				if m := internalModule(name); m != "" {
					mods = append(mods, m)
				}
				background = background || backgroundWorkers[name]
			}
		}
		if !p.labelled(s) && !background {
			continue
		}
		total += count
		if len(mods) == 0 {
			self["go_runtime"] += count
			continue
		}
		if contains(profiledModules, mods[0]) {
			self[mods[0]] += count
		} else {
			self["other"] += count
		}
		seen := map[string]bool{}
		for _, m := range mods {
			if !seen[m] {
				seen[m] = true
				incl[m] += count
			}
		}
	}
	if total == 0 {
		return nil, errors.New("profile holds no samples of the simulated runs")
	}
	out := map[string]float64{}
	for _, m := range profiledModules {
		out[m+".self_frac"] = float64(self[m]) / float64(total)
		out[m+".incl_frac"] = float64(incl[m]) / float64(total)
	}
	out["go_runtime.self_frac"] = float64(self["go_runtime"]) / float64(total)
	out["other.self_frac"] = float64(self["other"]) / float64(total)
	return out, nil
}

// backgroundWorkers are the runtime goroutines that collect and return
// memory on the side. Their samples carry no profiler label, yet they
// work for the simulated runs that allocated the memory.
var backgroundWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// internalModule returns "netsim" for "rupam/internal/netsim.(*Network).waterfill",
// and "" for a function outside rupam/internal.
// Package pq is the event heap of simx's engine and nothing else, so its
// frames count as simx.
func internalModule(fn string) string {
	const prefix = "rupam/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "pq" {
		return "simx"
	}
	return rest
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]uint64   // function id → name's string-table index
	strings  []string
}

type sample struct {
	locs      []uint64 // leaf first
	values    []uint64 // the first is the sample count
	labelKeys []uint64 // string-table indexes of the label keys
}

func (p *profile) str(i uint64) string {
	if i >= uint64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func (p *profile) funcName(id uint64) string { return p.str(p.funcs[id]) }

func (p *profile) labelled(s sample) bool {
	for _, k := range s.labelKeys {
		if p.str(k) == simLabel {
			return true
		}
	}
	return false
}

// parseProfile decodes a gzipped profile.proto: samples (field 2),
// locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	err = eachField(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return eachVarint(v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, bb, func(x uint64) { s.values = append(s.values, x) })
				case 3: // Label
					return eachField(bb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							s.labelKeys = append(s.labelKeys, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errors.New("profile: sample without values")
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(bb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For a varint field
// it passes the value; for a length-delimited one, the bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether it was
// written as one value or packed.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
