package pimendure_test

import (
	"image/png"
	"os"
	"path/filepath"
	"testing"
)

// Every committed heatmap under out/ is a PNG a standard decoder opens:
// the 18 configurations of each of Figs. 14, 15 and 16.
func TestCommittedPNGsDecode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("out", "*.png"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 54 {
		t.Fatalf("found %d PNGs under out/, want the 54 of Figs. 14–16", len(paths))
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if b := img.Bounds(); b.Empty() {
			t.Errorf("%s: empty image", path)
		}
	}
}
