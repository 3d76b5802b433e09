package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// sequentialReference rebuilds the grid the way the pre-parallel Build
// did — one interface-dispatched counting sort — as the byte-identity
// oracle for BuildParallel.
func sequentialReference(t *testing.T, g *graph.Graph, a Assigner) *Grid {
	t.Helper()
	p := a.P()
	nb := p * p
	offsets := make([]int64, nb+1)
	for _, e := range g.Edges {
		offsets[blockID(a, e)+1]++
	}
	for b := 0; b < nb; b++ {
		offsets[b+1] += offsets[b]
	}
	edges := make([]graph.Edge, len(g.Edges))
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, len(g.Edges))
	}
	next := make([]int64, nb)
	copy(next, offsets[:nb])
	for i, e := range g.Edges {
		b := blockID(a, e)
		at := next[b]
		edges[at] = e
		if weights != nil {
			weights[at] = g.Weights[i]
		}
		next[b]++
	}
	return &Grid{Blocks: Blocks{Assigner: a, offsets: offsets}, edges: edges, weights: weights}
}

func gridsIdentical(t *testing.T, label string, got, want *Grid) {
	t.Helper()
	if err := got.CheckLayout(want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// BuildParallel must produce a byte-identical Grid to the sequential
// counting sort at every worker count, for both assigners, power-of-two
// and ragged interval counts, weighted and unweighted graphs.
func TestBuildParallelByteIdentical(t *testing.T) {
	unweighted := testGraph(t)
	weighted := unweighted.Clone()
	graph.AttachUniformWeights(weighted, 8, 3)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"unweighted", unweighted}, {"weighted", weighted}} {
		for _, p := range []int{1, 7, 8, 32, 100} {
			for name, a := range assigners(t, tc.g.NumVertices, p) {
				want := sequentialReference(t, tc.g, a)
				for _, workers := range []int{1, 2, 3, 8, 0} {
					got, err := BuildParallel(tc.g, a, workers)
					if err != nil {
						t.Fatal(err)
					}
					label := tc.name + "/" + name
					if got.P() != p {
						t.Fatalf("%s: P=%d, want %d", label, got.P(), p)
					}
					gridsIdentical(t, label, got, want)
				}
			}
		}
	}
}

// Degenerate inputs: an edgeless graph and a single-vertex graph must
// still produce well-formed (empty) grids at any worker count.
func TestBuildParallelDegenerate(t *testing.T) {
	for _, g := range []*graph.Graph{
		{NumVertices: 1},
		{NumVertices: 16},
	} {
		a, err := NewHashed(g.NumVertices, g.NumVertices)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			gr, err := BuildParallel(g, a, workers)
			if err != nil {
				t.Fatal(err)
			}
			if gr.NumEdges() != 0 || gr.NonEmpty() != 0 {
				t.Fatalf("empty graph produced %d edges, %d non-empty blocks",
					gr.NumEdges(), gr.NonEmpty())
			}
			if err := gr.CheckPartition(g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The self-loop corner: loops land on the diagonal under both assigners
// at every worker count.
func TestBuildParallelSelfLoops(t *testing.T) {
	g := &graph.Graph{NumVertices: 9, Edges: []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 4, Dst: 4}, {Src: 8, Dst: 8}, {Src: 0, Dst: 8},
	}}
	for name, a := range assigners(t, 9, 3) {
		for _, workers := range []int{1, 3} {
			gr, err := BuildParallel(g, a, workers)
			if err != nil {
				t.Fatal(err)
			}
			diag := 0
			for i := 0; i < 3; i++ {
				diag += gr.BlockLen(i, i)
			}
			if diag != 3 {
				t.Fatalf("%s workers=%d: %d diagonal edges, want 3", name, workers, diag)
			}
			if err := gr.CheckPartition(g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// HashedBlocks must report exactly the block offsets of
// BuildParallel(NewHashed) for power-of-two and ragged P, on weighted
// and unweighted graphs, at any worker count — the graph is large
// enough for four chunks of several scratch windows each — and memoize
// them: a second call returns the same *Blocks without a build.
func TestHashedBlocksMatchesBuildParallel(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })

	var builds int64
	for _, weighted := range []bool{false, true} {
		base := streamTestGraph(t, weighted)
		for _, p := range []int{7, 8, 32, 100} {
			a, err := NewHashed(base.NumVertices, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildParallel(base, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("weighted=%v/P=%d/workers=%d", weighted, p, workers)
				// A fresh graph per case, so every case builds.
				g := &graph.Graph{NumVertices: base.NumVertices, Edges: base.Edges, Weights: base.Weights}
				got, err := HashedBlocks(g, p, workers)
				if err != nil {
					t.Fatal(err)
				}
				builds++
				if got.P() != p || !slices.Equal(got.offsets, want.offsets) {
					t.Fatalf("%s: offsets differ from BuildParallel's", label)
				}
				again, err := HashedBlocks(g, p, workers)
				if err != nil {
					t.Fatal(err)
				}
				if again != got {
					t.Fatalf("%s: second call returned a different *Blocks", label)
				}
				if n := reg.Counter(MetricBlockBuilds); n != builds {
					t.Fatalf("%s: %d builds counted, want %d", label, n, builds)
				}
			}
		}
	}
}
