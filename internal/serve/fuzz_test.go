package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequest drives the admission path on arbitrary bodies: decoding,
// normalizing and validating never panic, normalizing is idempotent, and
// every request validate admits carries a kernel spec the catalogue
// check accepts — so a malformed kernel shape is a 400, never a failed
// job. Nothing is compiled.
func FuzzRequest(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"mult"}`,
		`{"benchmark":"dot","lanes":1000}`,
		`{"benchmark":"dot","n":3}`,
		`{"benchmark":"dot","lanes":16,"n":32}`,
		`{"benchmark":"conv","lanes":30,"group_lanes":4,"bits":1}`,
		`{"benchmark":"BNN","synapses":-1,"technology":"pcm"}`,
		`{"benchmark":"vector-add","lanes":9223372036854775807}`,
		`{"benchmark":"mult","strategies":["RaxBs+Hw"],"sigmas":[0.3,-1],"technologies":["RRAM"]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		norm := req.normalized()
		again, _ := json.Marshal(norm.normalized())
		once, _ := json.Marshal(norm)
		if !bytes.Equal(once, again) {
			t.Fatalf("normalizing is not idempotent:\n%s\n%s", once, again)
		}
		if err := norm.validate(cfg); err != nil {
			return
		}
		if err := norm.spec().Check(norm.Lanes); err != nil {
			t.Fatalf("admitted %s with a kernel spec the catalogue rejects: %v", once, err)
		}
	})
}
