package graph

import "sort"

// Stats summarizes the structural properties that drive the paper's
// results: size, degree skew, and locality proxies.
type Stats struct {
	NumVertices int
	NumEdges    int
	AvgDegree   float64
	MaxOutDeg   int
	MaxInDeg    int
	// GiniOut/GiniIn are the Gini coefficients of the out-/in-degree
	// distributions: 0 for perfectly uniform, approaching 1 for extreme
	// skew. Natural graphs (and R-MAT) sit well above uniform random
	// graphs; preferential-attachment graphs are skewed only on the in
	// side.
	GiniOut float64
	GiniIn  float64
	// SelfLoops counts v→v edges (kept, as in raw SNAP lists).
	SelfLoops int
}

// ComputeStats scans g once (plus a sort over the degree array).
func ComputeStats(g *Graph) Stats {
	s := Stats{NumVertices: g.NumVertices, NumEdges: len(g.Edges)}
	if g.NumVertices == 0 {
		return s
	}
	out := make([]int, g.NumVertices)
	in := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		out[e.Src]++
		in[e.Dst]++
		if e.Src == e.Dst {
			s.SelfLoops++
		}
	}
	for v := 0; v < g.NumVertices; v++ {
		if out[v] > s.MaxOutDeg {
			s.MaxOutDeg = out[v]
		}
		if in[v] > s.MaxInDeg {
			s.MaxInDeg = in[v]
		}
	}
	s.AvgDegree = float64(len(g.Edges)) / float64(g.NumVertices)
	s.GiniOut = gini(out)
	s.GiniIn = gini(in)
	return s
}

// gini computes the Gini coefficient of a non-negative integer sample.
func gini(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, x := range sorted {
		cum += float64(x)
		weighted += float64(i+1) * float64(x)
	}
	if cum == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted - (n+1)*cum) / (n * cum)
}
