package partition

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func streamTestGraph(t *testing.T, weighted bool) *graph.Graph {
	t.Helper()
	g, err := graph.GenerateRMAT(1<<11, 120_000, graph.RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.05}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if weighted {
		graph.AttachUniformWeights(g, 8, 3)
	}
	return g
}

// TestStreamGridMatchesBuildParallel pins the streaming identity: the
// bounded-memory two-pass build emits byte-for-byte the layout of the
// in-memory build, at budgets small enough to force many spilled runs,
// for both assigner families and weighted/unweighted graphs.
func TestStreamGridMatchesBuildParallel(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := streamTestGraph(t, weighted)
		for _, mk := range []struct {
			name string
			make func() (Assigner, error)
		}{
			{"hashed", func() (Assigner, error) { return NewHashed(g.NumVertices, 8) }},
			{"contiguous", func() (Assigner, error) { return NewContiguous(g.NumVertices, 8) }},
		} {
			a, err := mk.make()
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildParallel(g, a, 0)
			if err != nil {
				t.Fatal(err)
			}
			// 1 MiB floor budget → ~43k-entry runs → 3 spilled runs; the
			// default budget keeps everything in one in-memory run.
			for _, budget := range []int64{1, 0} {
				var edges []graph.Edge
				var weights []float32
				offsets, err := streamGrid(g, a, StreamOptions{BudgetBytes: budget, TmpDir: t.TempDir()},
					func(e []graph.Edge, w []float32) error {
						edges = append(edges, e...)
						weights = append(weights, w...)
						return nil
					})
				if err != nil {
					t.Fatalf("%s/weighted=%v/budget=%d: %v", mk.name, weighted, budget, err)
				}
				got, err := GridFromParts(a, offsets, edges, weights)
				if err != nil {
					t.Fatal(err)
				}
				gridsIdentical(t, fmt.Sprintf("%s/budget=%d", mk.name, budget), got, want)
			}
		}
	}
}

// TestStreamGridIntoContainer writes grid sections through a V2Writer
// with the spilling builder and checks that a container loaded through
// either reader carries exactly the layout BuildParallel derives from
// the graph, and that its graph rebuilds that same layout.
func TestStreamGridIntoContainer(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := streamTestGraph(t, weighted)
		a, err := NewHashed(g.NumVertices, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BuildParallel(g, a, 0)
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "g.hyve2")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := graph.NewV2Writer(f, g.NumVertices, len(g.Edges))
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteV2Into(w, g, graph.V2Options{}); err != nil {
			t.Fatal(err)
		}
		if err := StreamGridInto(w, g, a, StreamOptions{BudgetBytes: 1, TmpDir: t.TempDir()}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		for _, rd := range []struct {
			name string
			open func() (*graph.Container, error)
		}{
			{"mmap", func() (*graph.Container, error) { return graph.OpenV2(path) }},
			{"stream", func() (*graph.Container, error) {
				cf, err := os.Open(path)
				if err != nil {
					return nil, err
				}
				defer cf.Close()
				st, err := cf.Stat()
				if err != nil {
					return nil, err
				}
				return graph.ReadV2(cf, st.Size())
			}},
		} {
			label := fmt.Sprintf("%s/weighted=%v", rd.name, weighted)
			c, err := rd.open()
			if err != nil {
				t.Fatal(err)
			}
			if c.GridP() != 8 {
				t.Fatalf("%s: GridP = %d, want 8", label, c.GridP())
			}
			off, edges, wts, p, contig, ok := c.GridParts()
			if !ok || p != 8 || contig {
				t.Fatalf("%s: GridParts: ok=%v p=%d contig=%v", label, ok, p, contig)
			}
			stored, err := GridFromParts(a, off, edges, wts)
			if err != nil {
				t.Fatal(err)
			}
			gridsIdentical(t, label+"/stored", stored, want)
			rebuilt, err := BuildParallel(c.Graph(), a, 0)
			if err != nil {
				t.Fatal(err)
			}
			gridsIdentical(t, label+"/rebuilt", rebuilt, want)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStreamGridIntoRejectsCustomAssigner: the container header can
// only name the two production families.
func TestStreamGridIntoRejectsCustomAssigner(t *testing.T) {
	g := streamTestGraph(t, false)
	f, err := os.Create(filepath.Join(t.TempDir(), "g.hyve2"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := graph.NewV2Writer(f, g.NumVertices, len(g.Edges))
	if err != nil {
		t.Fatal(err)
	}
	if err := StreamGridInto(w, g, customAssigner{n: g.NumVertices}, StreamOptions{}); err == nil {
		t.Fatal("custom assigner accepted for container grid sections")
	}
}

type customAssigner struct{ n int }

func (c customAssigner) NumVertices() int                { return c.n }
func (c customAssigner) P() int                          { return 4 }
func (c customAssigner) IntervalOf(v graph.VertexID) int { return int(v) % 4 }
func (c customAssigner) IndexWithin(v graph.VertexID) int {
	return int(v) / 4
}
func (c customAssigner) IntervalLen(i int) int { return (c.n + 3 - i) / 4 }
func (c customAssigner) VertexAt(interval, index int) graph.VertexID {
	return graph.VertexID(index*4 + interval)
}
