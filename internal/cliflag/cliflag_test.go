package cliflag

import (
	"flag"
	"reflect"
	"testing"

	"pimendure/pim"
)

// Parsed flags map onto the pim option types; a flag the CLI did not
// register keeps the default it set.
func TestFlagsMapping(t *testing.T) {
	f := Flags{Bench: "mult", Lanes: 1024, Rows: 1024, Within: "St", Between: "St",
		Iters: 10000, Recompile: 100, Seed: 7, Tech: "MRAM"}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, "benchmark", "bits", "lanes", "rows", "within", "between", "hw",
		"iters", "recompile", "sample", "tech", "workers")
	args := []string{"-benchmark", "dot", "-bits", "8", "-lanes", "64", "-rows", "512",
		"-within", "Ra", "-between", "byteshift", "-hw", "-iters", "400", "-recompile", "20",
		"-sample", "5", "-tech", "pcm", "-workers", "3"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("seed") != nil || fs.Lookup("bench") != nil {
		t.Error("registered a flag that was not asked for")
	}

	want := pim.DefaultOptions()
	want.Lanes, want.Rows = 64, 512
	if got := f.Options(); got != want {
		t.Errorf("Options() = %+v, want %+v", got, want)
	}
	if got := f.Kernel(); got != (pim.KernelSpec{Name: "dot", Bits: 8}) {
		t.Errorf("Kernel() = %+v", got)
	}
	wantRC := pim.RunConfig{Iterations: 400, RecompileEvery: 20, Seed: 7, Workers: 3, SampleEvery: 5}
	if got := f.RunConfig(); got != wantRC {
		t.Errorf("RunConfig() = %+v, want %+v", got, wantRC)
	}
	s, err := f.Strategy()
	if err != nil || s != (pim.Strategy{Within: pim.Random, Between: pim.ByteShift, Hw: true}) {
		t.Errorf("Strategy() = %+v, %v", s, err)
	}
	if f.Tech != "pcm" {
		t.Errorf("-tech parsed to %q", f.Tech)
	}

	f.Within = "zz"
	if _, err := f.Strategy(); err == nil {
		t.Error("bad -within accepted")
	}
	f.Within, f.Between = "St", "zz"
	if _, err := f.Strategy(); err == nil {
		t.Error("bad -between accepted")
	}
}

// Register defaults each flag to the field's value and panics on a
// name it does not know.
func TestRegisterDefaults(t *testing.T) {
	f := Flags{Rows: 256}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, "rows", "lanes")
	if r := fs.Lookup("rows"); r.DefValue != "256" {
		t.Errorf("-rows default %q", r.DefValue)
	}
	if l := fs.Lookup("lanes"); l.DefValue != "0" {
		t.Errorf("-lanes default %q", l.DefValue)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown flag name registered without a panic")
		}
	}()
	f.Register(fs, "nope")
}

func TestParseSigmas(t *testing.T) {
	for in, want := range map[string][]float64{
		"0.3":          {0.3},
		"0.3, 0.6,":    {0.3, 0.6},
		" 0 ,1.5,0.25": {0, 1.5, 0.25},
	} {
		got, err := ParseSigmas(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseSigmas(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", ",", "0.3,abc", "-0.1", "NaN", "Inf"} {
		if got, err := ParseSigmas(bad); err == nil {
			t.Errorf("ParseSigmas(%q) accepted: %v", bad, got)
		}
	}
}
