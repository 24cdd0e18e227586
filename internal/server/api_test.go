package server

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeSubmit drives the submit decoder behind POST /v1/sweeps with
// arbitrary bodies. It must never panic, and every body it accepts must yield canonical cells that pass
// Machine.Validate, carry unique keys and carry their own Config.Hash. The
// decoder is called directly, so nothing simulates.
func FuzzDecodeSubmit(f *testing.F) {
	smoke := []byte(`{"cells":[{"key":"smoke","config":{"Benchmarks":["gcc"],"Scheme":1,"MaxInstructions":20000}}]}`)
	f.Add(smoke)
	// trace_level is a retired field: the decoder must refuse it.
	f.Add([]byte(`{"cells":[{"config":{"Benchmarks":["mcf","gcc"],"Scheme":2,"Warmup":-5}}],"trace_level":2}`))
	f.Add([]byte(`{"cells":[{"key":"x","config":{"Benchmarks":["gcc"]}},{"key":"x","config":{"Benchmarks":["mcf"]}}]}`))
	f.Add(append(bytes.Repeat([]byte(" "), MaxRequestBytes), smoke...))

	f.Fuzz(func(t *testing.T, body []byte) {
		cells, err := DecodeSubmit(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(cells) == 0 {
			t.Fatal("accepted a submission with no cells")
		}
		keys := map[string]bool{}
		for i, c := range cells {
			canon, err := c.Config.Canonical()
			if err != nil || !reflect.DeepEqual(canon, c.Config) {
				t.Fatalf("cell %d is not canonical (%v): %+v", i, err, c.Config)
			}
			if err := c.Config.Machine.Validate(); err != nil {
				t.Fatalf("cell %d: invalid machine accepted: %v", i, err)
			}
			if hash, err := c.Config.Hash(); err != nil || hash != c.Hash {
				t.Fatalf("cell %d: hash %q, want %q (%v)", i, c.Hash, hash, err)
			}
			if c.Key == "" || keys[c.Key] {
				t.Fatalf("cell %d: empty or duplicate key %q", i, c.Key)
			}
			keys[c.Key] = true
		}
	})
}
