package serve

import (
	"encoding/json"
	"fmt"

	"pimendure/pim"
)

// Request is the JSON body of POST /sweep and POST /run: a named
// benchmark, the array geometry, a pim.RunConfig, a strategy selection
// and a device technology. Zero fields take the paper's §4 defaults, so
// `{"benchmark":"mult"}` is a complete full-scale sweep request.
type Request struct {
	// Benchmark names the catalogue kernel (pim.KernelSpec): "mult",
	// "dot", "conv", "add" or "bnn", or an alias such as
	// "multiplication".
	Benchmark string `json:"benchmark"`
	// Bits is the operand precision (default 32; convolution 8).
	Bits int `json:"bits,omitempty"`
	// N is the dot-product length (default: the largest power of two
	// ≤ the lane count).
	N int `json:"n,omitempty"`
	// GroupLanes and MultsPerLane shape the convolution (default 4×3).
	GroupLanes   int `json:"group_lanes,omitempty"`
	MultsPerLane int `json:"mults_per_lane,omitempty"`
	// Synapses sizes the BNN layer (default 64).
	Synapses int `json:"synapses,omitempty"`

	// Lanes × Rows is the array geometry (default 1024×1024).
	Lanes int `json:"lanes,omitempty"`
	Rows  int `json:"rows,omitempty"`
	// NoPreset disables the CRAM-style output preset write; Mixed2
	// selects the minimum two-input basis over NAND; LowestFirstAlloc
	// switches to the adversarial ablation allocator.
	NoPreset         bool `json:"no_preset,omitempty"`
	Mixed2           bool `json:"mixed2,omitempty"`
	LowestFirstAlloc bool `json:"lowest_first_alloc,omitempty"`

	// Iterations, RecompileEvery, Seed, Workers and SampleEvery mirror
	// pim.RunConfig (defaults 10000, 100, 0, server-budgeted, 0).
	Iterations     int   `json:"iterations,omitempty"`
	RecompileEvery int   `json:"recompile_every,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	Workers        int   `json:"workers,omitempty"`
	SampleEvery    int   `json:"sample_every,omitempty"`

	// Strategies selects load-balancing configurations by paper label
	// ("StxSt", "RaxBs+Hw", …). Empty means all 18 for /sweep and /fleet
	// and the St×St baseline for /run.
	Strategies []string `json:"strategies,omitempty"`
	// Technology names the device model: "MRAM" (default), "RRAM",
	// "PCM", "MRAM-projected".
	Technology string `json:"technology,omitempty"`

	// Devices, Sigmas and Technologies shape POST /fleet (ignored by
	// /run and /sweep): the simulated fleet population per sweep point
	// (default 100 000, capped by Config.MaxDevices), the lognormal
	// endurance shapes (default {0.3}), and the device models to sweep
	// (default: just Technology).
	Devices      int       `json:"devices,omitempty"`
	Sigmas       []float64 `json:"sigmas,omitempty"`
	Technologies []string  `json:"technologies,omitempty"`
}

// normalized returns the request with every omitted (zero) field filled
// in with its default — the canonical form behind coalescing
// fingerprints, so a request relying on defaults and one spelling them
// out coalesce together. The kernel fields take the catalogue's
// canonical name and defaults, and strategy and technology names their
// canonical spelling ("raxbs+hw" → "RaxBs+Hw", "mram" → "MRAM"). Negative
// sizes and unknown names (a list holding one keeps its spelling) are
// left for validate to reject.
func (r Request) normalized() Request {
	if r.Lanes == 0 {
		r.Lanes = 1024
	}
	if r.Rows == 0 {
		r.Rows = 1024
	}
	k := r.spec().Normalize(r.Lanes)
	r.Benchmark, r.Bits, r.N, r.GroupLanes, r.MultsPerLane, r.Synapses =
		k.Name, k.Bits, k.N, k.GroupLanes, k.MultsPerLane, k.Synapses
	if r.Iterations == 0 {
		r.Iterations = 10000
	}
	if r.RecompileEvery == 0 {
		r.RecompileEvery = 100
	}
	if r.Technology == "" {
		r.Technology = "MRAM"
	}
	if t, err := pim.TechnologyNamed(r.Technology); err == nil {
		r.Technology = t.Name
	}
	if ss, err := r.strategies(); err == nil && ss != nil {
		r.Strategies = make([]string, len(ss))
		for i, st := range ss {
			r.Strategies[i] = st.Name()
		}
	}
	if r.Devices == 0 {
		r.Devices = 100_000
	}
	if len(r.Sigmas) == 0 {
		r.Sigmas = []float64{pim.DefaultFleetSigma}
	}
	if len(r.Technologies) == 0 {
		r.Technologies = []string{r.Technology}
	} else if ts, err := r.technologies(); err == nil {
		r.Technologies = make([]string, len(ts))
		for i, t := range ts {
			r.Technologies[i] = t.Name
		}
	}
	return r
}

// validate checks a normalized request against the server's admission
// caps and the catalogue's kernel check — the cheap rejection (400)
// that keeps a hostile or mistyped request from ever reaching the
// compile/simulate pipeline.
func (r Request) validate(cfg Config) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"lanes", r.Lanes}, {"rows", r.Rows}, {"iterations", r.Iterations}, {"devices", r.Devices},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be positive, got %d", f.name, f.v)
		}
	}
	if err := r.spec().Check(r.Lanes); err != nil {
		return err
	}
	if r.Lanes > cfg.MaxLanes || r.Rows > cfg.MaxRows {
		return fmt.Errorf("array %d×%d exceeds the server cap %d×%d", r.Lanes, r.Rows, cfg.MaxLanes, cfg.MaxRows)
	}
	if r.Iterations > cfg.MaxIterations {
		return fmt.Errorf("iterations %d exceeds the server cap %d", r.Iterations, cfg.MaxIterations)
	}
	if r.SampleEvery < 0 {
		return fmt.Errorf("sample_every must be ≥ 0")
	}
	if r.Devices > cfg.MaxDevices {
		return fmt.Errorf("devices %d exceeds the server cap %d", r.Devices, cfg.MaxDevices)
	}
	if len(r.Sigmas) > maxFleetSigmas {
		return fmt.Errorf("%d sigmas exceeds the cap %d", len(r.Sigmas), maxFleetSigmas)
	}
	for _, s := range r.Sigmas {
		if s < 0 {
			return fmt.Errorf("negative sigma %v", s)
		}
	}
	if _, err := pim.TechnologyNamed(r.Technology); err != nil {
		return err
	}
	if _, err := r.technologies(); err != nil {
		return err
	}
	if _, err := r.strategies(); err != nil {
		return err
	}
	return nil
}

// maxFleetSigmas bounds the σ sweep of one request: each σ costs a
// hazard-table build per strategy plus a full device population, so the
// cap keeps a single request from smuggling in an unbounded study.
const maxFleetSigmas = 16

// technologies resolves the fleet sweep's device-model list (normalized
// to at least the single Technology).
func (r Request) technologies() ([]pim.Technology, error) {
	out := make([]pim.Technology, len(r.Technologies))
	for i, name := range r.Technologies {
		var err error
		if out[i], err = pim.TechnologyNamed(name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// strategies resolves the paper labels ("RaxBs+Hw") of the strategy
// selection; an empty selection returns nil (the caller's default).
func (r Request) strategies() ([]pim.Strategy, error) {
	if len(r.Strategies) == 0 {
		return nil, nil
	}
	out := make([]pim.Strategy, len(r.Strategies))
	for i, label := range r.Strategies {
		var err error
		if out[i], err = pim.StrategyNamed(label); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fingerprint is the coalescing key: two requests with the same
// canonical form (and endpoint kind: "run", "sweep" or "fleet") are the
// same work.
func (r Request) fingerprint(kind string) string {
	data, _ := json.Marshal(r) // struct of plain fields; cannot fail
	return kind + ":" + string(data)
}

// options converts the geometry/compile fields to pim.Options.
func (r Request) options() pim.Options {
	return pim.Options{
		Lanes:            r.Lanes,
		Rows:             r.Rows,
		PresetOutputs:    !r.NoPreset,
		NANDBasis:        !r.Mixed2,
		LowestFirstAlloc: r.LowestFirstAlloc,
	}
}

// spec maps the request's kernel fields onto the catalogue.
func (r Request) spec() pim.KernelSpec {
	return pim.KernelSpec{Name: r.Benchmark, Bits: r.Bits, N: r.N,
		GroupLanes: r.GroupLanes, MultsPerLane: r.MultsPerLane, Synapses: r.Synapses}
}

// compile builds the requested kernel — the expensive half of request
// construction, run on a queue worker rather than the request handler.
func (r Request) compile() (*pim.Benchmark, error) {
	return pim.NewKernel(r.options(), r.spec())
}
