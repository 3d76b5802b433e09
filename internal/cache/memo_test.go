package cache

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestGraphDigestDoesNotPinGraph digests a fresh graph, drops it, and
// waits for the collector to finalize it: the memoized digest lives on
// the instance and must not keep it alive.
func TestGraphDigestDoesNotPinGraph(t *testing.T) {
	collected := make(chan struct{})
	func() {
		g, err := graph.GenerateUniform(256, 1024, 7)
		if err != nil {
			t.Fatal(err)
		}
		if GraphDigest(g) != Digest(graph.ContentDigest(g)) {
			t.Fatal("memoized digest differs from the content digest")
		}
		runtime.SetFinalizer(g, func(*graph.Graph) { close(collected) })
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a digested graph was never collected: something still references it")
}

// TestMemoizedResultsMatchFreshInstance prices every program on a paper
// dataset through WorkloadFor — the memoized dataset, weighted instance
// and functional summary — twice, and compares the result documents
// with those of a freshly generated, memo-free instance.
func TestMemoizedResultsMatchFreshInstance(t *testing.T) {
	d := graph.Datasets[0]
	cfg := core.HyVEOpt()
	for _, p := range algo.All() {
		var docs [][]byte
		for i := 0; i < 2; i++ {
			w, err := core.WorkloadFor(d, p)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, encode(t, cfg, w))
		}
		g, err := d.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if p.NeedsWeights() {
			graph.AttachUniformWeights(g, 8, d.Seed^0x5EED)
		}
		fresh := encode(t, cfg, core.Workload{
			DatasetName: d.Name, Graph: g, Program: p,
			FullVertices: d.FullVertices, FullEdges: d.FullEdges,
		})
		for i, doc := range docs {
			if !bytes.Equal(doc, fresh) {
				t.Errorf("%s call %d: memoized result document differs from a fresh instance's", p.Name(), i)
			}
		}
	}
}

func encode(t *testing.T, cfg core.Config, w core.Workload) []byte {
	t.Helper()
	r, err := core.Simulate(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}
