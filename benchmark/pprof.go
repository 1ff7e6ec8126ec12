package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile.proto the layer attribution needs:
// each sample's weight and its stack of function names, innermost first.
// runtime/pprof writes the message gzip-compressed; parseProfile decodes
// the protobuf wire format directly, so the benchmark needs no module
// beyond the standard library.
type profile struct {
	sampleTypes []string // sample value types ("samples", "cpu", ...)
	samples     []sample
}

type sample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	values []int64
}

// weight returns the sample's value of the given type (the last value when
// the type is absent).
func (p *profile) weight(s sample, typ string) int64 {
	i := len(p.sampleTypes) - 1
	for j, t := range p.sampleTypes {
		if t == typ {
			i = j
		}
	}
	if i < 0 || i >= len(s.values) {
		return 0
	}
	return s.values[i]
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	var (
		strs      []string
		typeIdx   []int64 // string index of each sample type
		rawSample [][]byte
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]int64{}    // function id → string index
	)
	err := fields(data, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case profSampleType:
			return fields(b, func(f int, _ int, v uint64, _ []byte) error {
				if f == valueTypeType {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case profSample:
			rawSample = append(rawSample, b)
		case profLocation:
			var id uint64
			var funcs []uint64
			err := fields(b, func(f int, _ int, v uint64, b []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return fields(b, func(f int, _ int, v uint64, _ []byte) error {
						if f == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(f int, _ int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case profStringTable:
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
	p := &profile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, b := range rawSample {
		var s sample
		var locs []uint64
		err := fields(b, func(f int, wt int, v uint64, b []byte) error {
			switch f {
			case sampleLocationID:
				return repeated(wt, v, b, func(x uint64) { locs = append(locs, x) })
			case sampleValue:
				return repeated(wt, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and wire type plus its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; the profile schema uses none.
func fields(b []byte, fn func(field int, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field, which encoders may write
// packed (one length-delimited run of varints) or one varint per element.
func repeated(wt int, v uint64, b []byte, add func(uint64)) error {
	if wt == wireVarint {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
