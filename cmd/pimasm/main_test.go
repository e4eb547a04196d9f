package main

import (
	"flag"
	"testing"

	"pimendure/internal/cliflag"
	"pimendure/internal/mapping"
)

// The wear subcommand's -within, -between and -hw flags map onto the
// strategy it simulates; unknown strategy names are rejected.
func TestParseStrategy(t *testing.T) {
	parse := func(args ...string) (cliflag.Flags, error) {
		fs := flag.NewFlagSet("wear", flag.ContinueOnError)
		f := cliflag.Flags{Within: "St", Between: "St"}
		f.Register(fs, "within", "between", "hw")
		return f, fs.Parse(args)
	}
	f, err := parse("-within", "Ra", "-between", "Bs", "-hw")
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	if s.Within != mapping.Random || s.Between != mapping.ByteShift || !s.Hw {
		t.Errorf("parsed %+v", s)
	}
	if s.Name() != "RaxBs+Hw" {
		t.Errorf("name = %q", s.Name())
	}
	for _, args := range [][]string{{"-within", "zz"}, {"-between", "zz"}} {
		f, err := parse(args...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Strategy(); err == nil {
			t.Errorf("bad strategy %v accepted", args)
		}
	}
}
