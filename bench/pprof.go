package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file decodes the gzip'd profile.proto that runtime/pprof writes,
// keeping only what layer attribution needs: each sample's CPU time and
// its stack as function names, leaf first. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// cpuSample is one profile sample: its value in nanoseconds and its
// stack, innermost function first (inlined frames included).
type cpuSample struct {
	ns    int64
	stack []string
}

// parseProfile decodes a gzip'd CPU profile.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indices
		rawSamples  [][]byte
		locLines    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function id -> name string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType
			var vt [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			rawSamples = append(rawSamples, b)
		case 4: // location: id = 1, line = 4 (Line.function_id = 1)
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: id = 1, name = 2
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
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
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	valueIdx := -1
	for i, vt := range sampleTypes {
		if str(vt[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no sample type in nanoseconds (not a CPU profile?)")
	}
	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		var locs []uint64
		var values []int64
		err := fields(rs, func(n int, v uint64, b []byte) error {
			if n != 1 && n != 2 {
				return nil
			}
			vs, err := repeated(v, b)
			if n == 1 {
				locs = append(locs, vs...)
			} else {
				for _, v := range vs {
					values = append(values, int64(v))
				}
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if valueIdx >= len(values) {
			return nil, errors.New("profile: sample has too few values")
		}
		s := cpuSample{ns: values[valueIdx]}
		for _, loc := range locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// repeated returns the elements of a repeated varint field from one
// fields callback: the value itself when it was sent unpacked (b nil),
// else the packed run in b.
func repeated(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// fields calls fn for every field of one protobuf message: varint
// fields with their value and a nil slice, length-delimited fields with
// their (non-nil) bytes. 64- and 32-bit fields are skipped: the profile
// carries none that attribution needs.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
