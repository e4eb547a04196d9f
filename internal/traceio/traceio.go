// Package traceio serializes compiled PIM traces and accumulated write
// distributions to a versioned JSON format, so that compilation,
// simulation and rendering can run as separate steps (and experiment
// outputs can be archived and re-plotted without re-simulation).
package traceio

import (
	"encoding/json"
	"fmt"
	"io"

	"pimendure/internal/core"
	"pimendure/internal/program"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// opRecord is the compact per-op encoding:
// [kind, gate, out, in0, in1, mask, laneShift, data].
type opRecord [8]int32

type traceJSON struct {
	Version    int        `json:"version"`
	Lanes      int        `json:"lanes"`
	LaneBits   int        `json:"laneBits"`
	WriteSlots int        `json:"writeSlots"`
	ReadSlots  int        `json:"readSlots"`
	Masks      []maskJSON `json:"masks"`
	Ops        []opRecord `json:"ops"`
}

type maskJSON struct {
	Lanes int   `json:"lanes"`
	Full  bool  `json:"full,omitempty"`
	Set   []int `json:"set,omitempty"` // set lanes, ascending, when not full
}

// WriteTrace encodes a trace.
func WriteTrace(w io.Writer, tr *program.Trace) error {
	out := traceJSON{
		Version:    FormatVersion,
		Lanes:      tr.Lanes,
		LaneBits:   tr.LaneBits,
		WriteSlots: tr.WriteSlots,
		ReadSlots:  tr.ReadSlots,
	}
	for _, m := range tr.Masks {
		mj := maskJSON{Lanes: m.Len(), Full: m.Full()}
		if !mj.Full {
			mj.Set = m.Lanes()
		}
		out.Masks = append(out.Masks, mj)
	}
	for _, op := range tr.Ops {
		out.Ops = append(out.Ops, opRecord{
			int32(op.Kind), int32(op.Gate), int32(op.Out), int32(op.In0), int32(op.In1),
			int32(op.Mask), op.LaneShift, op.Data,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

type distJSON struct {
	Version    int      `json:"version"`
	Rows       int      `json:"rows"`
	Lanes      int      `json:"lanes"`
	Iterations int      `json:"iterations"`
	Steps      int      `json:"stepsPerIteration"`
	Counts     []uint64 `json:"counts"`
}

// WriteDist encodes a write distribution.
func WriteDist(w io.Writer, d *core.WriteDist) error {
	return json.NewEncoder(w).Encode(distJSON{
		Version:    FormatVersion,
		Rows:       d.Rows,
		Lanes:      d.Lanes,
		Iterations: d.Iterations,
		Steps:      d.StepsPerIteration,
		Counts:     d.Counts,
	})
}

// ReadDist decodes and validates a write distribution.
func ReadDist(r io.Reader) (*core.WriteDist, error) {
	var in distJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("traceio: unsupported distribution format version %d (want %d)", in.Version, FormatVersion)
	}
	if in.Rows <= 0 || in.Lanes <= 0 {
		return nil, fmt.Errorf("traceio: non-positive dimensions %dx%d", in.Rows, in.Lanes)
	}
	// Divide rather than multiply: rows×lanes can overflow int and wrap
	// to the length of a short counts array.
	if len(in.Counts)%in.Rows != 0 || len(in.Counts)/in.Rows != in.Lanes {
		return nil, fmt.Errorf("traceio: %d counts do not fill %dx%d", len(in.Counts), in.Rows, in.Lanes)
	}
	d := core.NewWriteDist(in.Rows, in.Lanes)
	copy(d.Counts, in.Counts)
	d.Iterations = in.Iterations
	d.StepsPerIteration = in.Steps
	return d, nil
}
