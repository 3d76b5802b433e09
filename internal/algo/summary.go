package algo

import (
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
)

// MetricFunctionalRuns counts the functional passes Summarize actually
// executes on the process-global recorder: memo misses and bypasses,
// never memo hits.
const MetricFunctionalRuns = "algo.functional.runs"

// Summary is the scalar outcome of running a program on a graph: what
// the architecture simulators derive their iteration count and
// activity factors from. It depends on the (graph, program) pair only,
// never on the memory hierarchy simulating it.
type Summary struct {
	Iterations     int
	EdgesProcessed int64
	ActiveEdges    int64
	UpdatedGathers int64
}

// ActivityRatio is the fraction of traversals that scattered a message.
func (s Summary) ActivityRatio() float64 { return ratio(s.ActiveEdges, s.EdgesProcessed) }

// UpdateRatio is the fraction of traversals that wrote the destination.
func (s Summary) UpdateRatio() float64 { return ratio(s.UpdatedGathers, s.EdgesProcessed) }

func ratio(n, edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return float64(n) / float64(edges)
}

// Summary drops the result's per-vertex values.
func (r *Result) Summary() Summary {
	return Summary{
		Iterations:     r.Iterations,
		EdgesProcessed: r.EdgesProcessed,
		ActiveEdges:    r.ActiveEdges,
		UpdatedGathers: r.UpdatedGathers,
	}
}

// Summarize returns the summary of Run(p, g), memoized on g (see
// graph.Graph.Memo): every simulator pricing the same (graph, program)
// pair under a different hierarchy shares one functional pass, and the
// summary lives as long as g. Concurrent first callers share one run;
// an error is returned but not memoized. A program of a type this
// package does not define runs unmemoized.
func Summarize(p Program, g *graph.Graph) (Summary, error) {
	key, ok := summaryKeyOf(p)
	if !ok {
		return summarize(p, g)
	}
	v, err := g.Memo(key, func() (any, error) { return summarize(p, g) })
	if err != nil {
		return Summary{}, err
	}
	return v.(Summary), nil
}

func summarize(p Program, g *graph.Graph) (Summary, error) {
	obs.Default().Count(MetricFunctionalRuns, 1)
	r, err := Run(p, g)
	if err != nil {
		return Summary{}, err
	}
	return r.Summary(), nil
}

// summaryKey is the Memo key of a Summary: the program's concrete type
// plus every parameter that changes its run. Floats are keyed by their
// bits so every value, NaN included, finds its own entry again.
type summaryKey struct {
	prog             string
	root             graph.VertexID
	iterations       int
	damping, epsilon uint64
}

func summaryKeyOf(p Program) (summaryKey, bool) {
	switch q := p.(type) {
	case *PageRank:
		return summaryKey{prog: "PageRank", iterations: q.Iterations,
			damping: math.Float64bits(q.Damping), epsilon: math.Float64bits(q.Epsilon)}, true
	case *BFS:
		return summaryKey{prog: "BFS", root: q.Root}, true
	case *CC:
		return summaryKey{prog: "CC"}, true
	case *SSSP:
		return summaryKey{prog: "SSSP", root: q.Root}, true
	case *SpMV:
		return summaryKey{prog: "SpMV"}, true
	}
	return summaryKey{}, false
}
