package pim_test

import (
	"testing"

	"pimendure/pim"
)

// StrategyNamed is the inverse of Strategy.Name on all 18
// configurations, accepts the case-insensitive and spelled-out
// spellings, and rejects malformed labels.
func TestStrategyNamed(t *testing.T) {
	all := pim.AllStrategies()
	if len(all) != 18 {
		t.Fatalf("%d strategies, want 18", len(all))
	}
	for _, s := range all {
		got, err := pim.StrategyNamed(s.Name())
		if err != nil || got != s {
			t.Errorf("StrategyNamed(%q) = %+v, %v; want %+v", s.Name(), got, err, s)
		}
	}
	for label, want := range map[string]pim.Strategy{
		"StxSt":            {Within: pim.Static, Between: pim.Static},
		"RaxBs+Hw":         {Within: pim.Random, Between: pim.ByteShift, Hw: true},
		"BsxRa":            {Within: pim.ByteShift, Between: pim.Random},
		"raxbs+hw":         {Within: pim.Random, Between: pim.ByteShift, Hw: true},
		"RAXBS+HW":         {Within: pim.Random, Between: pim.ByteShift, Hw: true},
		" StxRa ":          {Within: pim.Static, Between: pim.Random},
		"randomxbyteshift": {Within: pim.Random, Between: pim.ByteShift},
		"staticxst+Hw":     {Within: pim.Static, Between: pim.Static, Hw: true},
	} {
		got, err := pim.StrategyNamed(label)
		if err != nil {
			t.Errorf("%q: %v", label, err)
			continue
		}
		if got != want {
			t.Errorf("%q parsed to %+v, want %+v", label, got, want)
		}
	}
	for _, bad := range []string{"", "St", "Stx", "xSt", "StSt", "QqxSt", "zzxSt", "Stxzz", "StxSt+", "StxSt+Hw+Hw", "StxStxSt"} {
		if s, err := pim.StrategyNamed(bad); err == nil {
			t.Errorf("malformed strategy %q accepted as %s", bad, s.Name())
		}
	}
}

// FuzzStrategyNamed: StrategyNamed never panics, and any label it
// accepts names a strategy whose canonical Name parses back to it.
func FuzzStrategyNamed(f *testing.F) {
	for _, s := range pim.AllStrategies() {
		f.Add(s.Name())
	}
	for _, seed := range []string{"", "St", "Stx", "QqxSt", "raxbs+hw", "randomxstatic+HW", "x+hw"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, label string) {
		s, err := pim.StrategyNamed(label)
		if err != nil {
			return
		}
		back, err := pim.StrategyNamed(s.Name())
		if err != nil || back != s {
			t.Fatalf("%q parsed to %+v, whose name %q parses to %+v, %v", label, s, s.Name(), back, err)
		}
	})
}
