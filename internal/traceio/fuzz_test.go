package traceio_test

import (
	"bytes"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/traceio"
	"pimendure/pim"
)

// FuzzReadDist feeds arbitrary bytes to the distribution decoder: it
// must never panic, and every distribution it accepts must fill its
// rows×lanes grid exactly and render through pim.Heatmap.
func FuzzReadDist(f *testing.F) {
	d := core.NewWriteDist(3, 4)
	for i := range d.Counts {
		d.Counts[i] = uint64(i * i)
	}
	d.Iterations, d.StepsPerIteration = 10, 7
	var buf bytes.Buffer
	if err := traceio.WriteDist(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// rows×lanes wraps to 0 in 64-bit arithmetic.
	f.Add([]byte(`{"version":1,"rows":4611686018427387904,"lanes":4,"counts":[]}`))
	f.Add([]byte(`{"version":1,"rows":2,"lanes":1,"counts":[1,2]}`))
	f.Add([]byte(`{"version":1,"rows":-1,"lanes":-2,"counts":[1,2]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := traceio.ReadDist(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d.Rows <= 0 || d.Lanes <= 0 || len(d.Counts)/d.Rows != d.Lanes || len(d.Counts)%d.Rows != 0 {
			t.Fatalf("accepted %d counts for %dx%d", len(d.Counts), d.Rows, d.Lanes)
		}
		if _, err := pim.Heatmap(d, 16); err != nil {
			t.Fatalf("accepted distribution does not render: %v", err)
		}
	})
}
