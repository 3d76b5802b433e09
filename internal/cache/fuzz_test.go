package cache

import (
	"bytes"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzDecodeResult feeds arbitrary bytes to the result decoder, seeded
// with genuine documents of the five Fig. 16 presets. Whatever decodes
// must re-encode to a canonical document that decodes again to the same
// result and the same bytes.
func FuzzDecodeResult(f *testing.F) {
	g, err := graph.GenerateUniform(256, 1024, 42)
	if err != nil {
		f.Fatal(err)
	}
	w := core.Workload{DatasetName: "fuzz", Graph: g, Program: algo.NewBFS(0)}
	for _, cfg := range core.Fig16Configs() {
		r, err := core.Simulate(cfg, w)
		if err != nil {
			f.Fatal(err)
		}
		doc, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"Report":{},"Detail":{}}`))
	f.Add([]byte(`{"Report":{}} {}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		first, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		again, err := DecodeResult(first)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, first)
		}
		if *again != *r {
			t.Fatalf("result changed across re-encoding:\n%+v\nvs\n%+v", *r, *again)
		}
		second, err := EncodeResult(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding not byte-stable:\n%s\nvs\n%s", first, second)
		}
	})
}
