package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestPresetsShareOneFunctionalRun prices one workload under the five
// Fig. 16 presets at once: the functional pass belongs to the (graph,
// program) pair, so it must run exactly once, and every preset must
// report what it reports on a graph with no memo.
func TestPresetsShareOneFunctionalRun(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })

	w := testWorkload(t, "BFS")
	cfgs := Fig16Configs()
	got := make([]*Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			r, err := Simulate(cfg, w)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = r
		}(i, cfg)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := reg.Counter(algo.MetricFunctionalRuns); n != 1 {
		t.Fatalf("%d functional runs for %d presets, want 1", n, len(cfgs))
	}
	for i, cfg := range cfgs {
		fresh := w
		fresh.Graph = w.Graph.Clone()
		want := simulate(t, cfg, fresh)
		if got[i].Report != want.Report || got[i].Detail != want.Detail {
			t.Errorf("%s: shared-run result differs from a memo-free graph's", cfg.Name)
		}
	}
}

// TestPresetsShareBlockBuilds prices one workload under the five
// Fig. 16 presets: the block counts belong to the (graph, P) pair, so
// the partition pass runs once per distinct P among the presets, not
// once per point, and a repeat of every point builds nothing.
func TestPresetsShareBlockBuilds(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })

	w := testWorkload(t, "PR")
	// YT's full size: the SRAM presets choose P = 16, the SRAM-less
	// baselines one interval per PU.
	w.FullVertices, w.FullEdges = 1_160_000, 2_990_000
	distinct := map[int]bool{}
	for _, cfg := range Fig16Configs() {
		p, err := ChoosePFor(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		distinct[p] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("presets span %d distinct P; the test needs at least two", len(distinct))
	}
	for pass := 0; pass < 2; pass++ {
		for _, cfg := range Fig16Configs() {
			simulate(t, cfg, w)
		}
		if n := reg.Counter(partition.MetricBlockBuilds); n != int64(len(distinct)) {
			t.Fatalf("pass %d: %d block builds for %d distinct P, want one per P", pass, n, len(distinct))
		}
	}
}

// TestWorkloadForSharesWeightedInstance checks that weighted programs
// get one derived instance per dataset, aliasing the base graph's edges
// and carrying exactly the weights a clone would have had attached.
func TestWorkloadForSharesWeightedInstance(t *testing.T) {
	d := graph.Datasets[0]
	base, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	a, err := WorkloadFor(d, algo.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := WorkloadFor(d, algo.NewSSSP(0))
	if err != nil {
		t.Fatal(err)
	}
	spmv, err := WorkloadFor(d, algo.NewSpMV())
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph != b.Graph || a.Graph != spmv.Graph {
		t.Fatal("weighted workloads of one dataset got different instances")
	}
	if a.Graph == base || &a.Graph.Edges[0] != &base.Edges[0] || len(a.Graph.Edges) != len(base.Edges) {
		t.Fatal("weighted instance does not alias the base graph's edges")
	}
	if base.Weighted() {
		t.Fatal("the base graph gained weights")
	}
	want := base.Clone()
	graph.AttachUniformWeights(want, 8, d.Seed^0x5EED)
	for i := range want.Weights {
		if math.Float32bits(a.Graph.Weights[i]) != math.Float32bits(want.Weights[i]) {
			t.Fatalf("weight %d = %v, want %v", i, a.Graph.Weights[i], want.Weights[i])
		}
	}
	pr, err := WorkloadFor(d, algo.NewPageRank())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Graph != base {
		t.Fatal("an unweighted program did not get the base graph")
	}
}
