package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that runtime/pprof CPU
// profiles use: samples with location IDs and values, locations with
// (possibly inlined) lines, functions and the string table.

// profSample is one decoded sample: its stack of function names, leaf
// first with inlined frames expanded, and its values.
type profSample struct {
	stack  []string
	values []int64
}

type protoBuf struct {
	b []byte
}

var errTruncated = errors.New("pprof: truncated message")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7F) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads the next field's number and wire type; for wire type 2 it
// also returns the payload.
func (p *protoBuf) field() (num int, wire int, val uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, wire, val, payload, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	q := protoBuf{payload}
	for len(q.b) > 0 {
		v, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

type rawSample struct {
	locs   []uint64
	values []uint64
}

// decodeProfile parses a gzip-compressed pprof profile.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		num, _, _, payload, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s rawSample
			q := protoBuf{payload}
			for len(q.b) > 0 {
				n, w, v, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					s.values, err = uints(s.values, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := protoBuf{payload}
			for len(q.b) > 0 {
				n, _, v, pl, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					r := protoBuf{pl}
					for len(r.b) > 0 {
						ln, _, lv, _, err := r.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			q := protoBuf{payload}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(payload))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		for _, v := range s.values {
			ps.values = append(ps.values, int64(v))
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
