package traceio

import (
	"encoding/json"
	"fmt"
	"io"

	"pimendure/internal/gates"
	"pimendure/internal/program"
)

// Helpers that only this package's tests use.

// ReadTrace decodes and validates a trace.
func ReadTrace(r io.Reader) (*program.Trace, error) {
	var in traceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("traceio: unsupported trace format version %d (want %d)", in.Version, FormatVersion)
	}
	if in.Lanes <= 0 {
		return nil, fmt.Errorf("traceio: non-positive lane count %d", in.Lanes)
	}
	tr := program.NewTrace(in.Lanes)
	tr.WriteSlots = in.WriteSlots
	tr.ReadSlots = in.ReadSlots
	for i, mj := range in.Masks {
		if mj.Lanes != in.Lanes {
			return nil, fmt.Errorf("traceio: mask %d spans %d lanes, trace has %d", i, mj.Lanes, in.Lanes)
		}
		var m *program.Mask
		if mj.Full {
			m = program.FullMask(in.Lanes)
		} else {
			m = program.NewMask(in.Lanes)
			for _, l := range mj.Set {
				if l < 0 || l >= in.Lanes {
					return nil, fmt.Errorf("traceio: mask %d has lane %d out of range", i, l)
				}
				m.Set(l)
			}
		}
		if got := tr.AddMask(m); int(got) != i {
			return nil, fmt.Errorf("traceio: duplicate mask %d collapses to %d; file corrupt", i, got)
		}
	}
	for i, rec := range in.Ops {
		op := program.Op{
			Kind:      program.OpKind(rec[0]),
			Gate:      gates.Kind(rec[1]),
			Out:       program.Bit(rec[2]),
			In0:       program.Bit(rec[3]),
			In1:       program.Bit(rec[4]),
			Mask:      program.MaskID(rec[5]),
			LaneShift: rec[6],
			Data:      rec[7],
		}
		if op.Kind > program.OpMove {
			return nil, fmt.Errorf("traceio: op %d has unknown kind %d", i, rec[0])
		}
		tr.Append(op)
	}
	if tr.LaneBits < in.LaneBits {
		tr.LaneBits = in.LaneBits
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return tr, nil
}
