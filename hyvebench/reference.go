package main

import (
	"bytes"
	"fmt"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// coreConfig resolves a configuration name the way every front door
// does, giving SRAM configurations the point's SRAM size.
func coreConfig(p point) (core.Config, error) {
	var cfg core.Config
	switch p.Config {
	case "hyve":
		cfg = core.HyVE()
	case "hyve-opt":
		cfg = core.HyVEOpt()
	case "sd":
		cfg = core.SRAMDRAM()
	case "dram":
		cfg = core.AccDRAM()
	case "reram":
		cfg = core.AccReRAM()
	default:
		return cfg, fmt.Errorf("unknown config %q", p.Config)
	}
	if cfg.UseOnChipSRAM {
		cfg.SRAMBytes = p.SRAMMB << 20
	}
	return cfg, nil
}

// resolve names the dataset and program of a point.
func resolve(p point) (graph.Dataset, algo.Program, error) {
	d, err := graph.DatasetByName(p.Dataset)
	if err != nil {
		return d, nil, err
	}
	prog, err := algo.ByName(p.Algo)
	return d, prog, err
}

// referenceDoc is the in-process reference for one point: a direct
// core.Simulate encoded by cache.EncodeResult, on g, the dataset's
// freshly generated graph. The workload is assembled the way
// core.WorkloadFor assembles it, but never from Dataset.Load: its
// process-wide memo may hold a graph loaded from a prepared container,
// and the reference must not come from the containers under test.
func referenceDoc(p point, g *graph.Graph) ([]byte, error) {
	d, prog, err := resolve(p)
	if err != nil {
		return nil, err
	}
	cfg, err := coreConfig(p)
	if err != nil {
		return nil, err
	}
	if prog.NeedsWeights() && !g.Weighted() {
		g = g.Clone()
		graph.AttachUniformWeights(g, 8, d.Seed^0x5EED)
	}
	r, err := core.Simulate(cfg, core.Workload{
		DatasetName: d.Name, Graph: g, FullVertices: d.FullVertices, FullEdges: d.FullEdges, Program: prog,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return cache.EncodeResult(r)
}

// reference holds the expected document and its simulated edge count
// for every point identity a workload touches.
type reference struct {
	docs  map[point][]byte
	edges map[point]int64
}

// doc returns the expected bytes for a point.
func (r *reference) doc(p point) []byte { return r.docs[p.identity()] }

// computeReference generates every dataset the points touch, then builds
// the reference for the points on workers goroutines. A point whose
// reference fails to compute is an error: the workload cannot be
// checked.
func computeReference(points []point, workers int) (*reference, error) {
	ref := &reference{docs: map[point][]byte{}, edges: map[point]int64{}}
	var todo []point
	var names []string
	graphs := map[string]*graph.Graph{}
	for _, p := range points {
		id := p.identity()
		if _, ok := ref.docs[id]; !ok {
			ref.docs[id] = nil
			todo = append(todo, id)
		}
		if _, ok := graphs[p.Dataset]; !ok {
			graphs[p.Dataset] = nil
			names = append(names, p.Dataset)
		}
	}
	generated := make([]*graph.Graph, len(names))
	err := parallel.ForEach(workers, len(names), func(i int) error {
		d, err := graph.DatasetByName(names[i])
		if err == nil {
			generated[i], err = d.Generate()
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for i, name := range names {
		graphs[name] = generated[i]
	}
	docs := make([][]byte, len(todo))
	err = parallel.ForEach(workers, len(todo), func(i int) (err error) {
		if docs[i], err = referenceDoc(todo[i], graphs[todo[i].Dataset]); err != nil {
			return fmt.Errorf("reference %s: %w", todo[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range todo {
		r, err := cache.DecodeResult(docs[i])
		if err != nil {
			return nil, err
		}
		ref.docs[p], ref.edges[p] = docs[i], r.Report.EdgesProcessed
	}
	return ref, nil
}

// checkStream compares a concatenation of newline-terminated documents
// against the expected documents in order. It returns how many points
// are wrong, missing or extra, and the simulated edges of the correct
// ones.
func checkStream(out []byte, want []point, ref *reference) (failed int, edges int64) {
	docs := bytes.SplitAfter(out, []byte("\n"))
	if n := len(docs); n > 0 && len(docs[n-1]) == 0 {
		docs = docs[:n-1]
	}
	for i, p := range want {
		if i < len(docs) && bytes.Equal(docs[i], ref.doc(p)) {
			edges += ref.edges[p.identity()]
			continue
		}
		failed++
	}
	if len(docs) > len(want) {
		failed += len(docs) - len(want) // duplicate or unexpected points
	}
	return failed, edges
}
