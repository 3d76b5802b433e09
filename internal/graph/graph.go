// Package graph provides the graph substrate used by the HyVE simulator:
// in-memory edge lists and CSR views, deterministic synthetic generators
// (R-MAT/Kronecker and uniform), the registry of the paper's five
// evaluation datasets, and compact binary serialization.
//
// The paper's datasets are SNAP downloads; this repository recreates them
// synthetically with matching vertex/edge counts and skew (see dataset.go
// and DESIGN.md §1 for the substitution argument).
package graph

import (
	"errors"
	"fmt"
	"sync"
)

// VertexID indexes a vertex. The paper assumes 32-bit vertex indices
// (an edge is two 32-bit ids, 64 bits total).
type VertexID = uint32

// Edge is a directed edge: 64 bits, exactly the paper's layout
// ("32 bits for the source vertex index and 32 bits for the destination").
type Edge struct {
	Src, Dst VertexID
}

// EdgeBytes is the storage footprint of one edge in the edge memory.
const EdgeBytes = 8

// Graph is a directed graph stored as an edge list, the native format of
// the edge-centric model: edges are streamed sequentially, vertices are
// identified by dense indices in [0, NumVertices).
//
// Weights, when non-nil, holds one constant weight per edge (used by
// SSSP/SpMV); per the paper, weights never change during execution.
//
// Topology is immutable after generation: once any consumer has seen the
// graph (a state, a partition, a degree query), Edges, Weights and
// NumVertices must not change. Dynamic-graph workloads (internal/dynamic)
// snapshot into fresh Graphs instead of mutating one in place. Memo
// relies on this contract; AttachUniformWeights is a generation-time
// step that runs before the graph is shared.
//
// Memo stores values derived from the graph's content on the instance
// itself — out-degrees, the content digest, functional run summaries,
// the weighted derivative — so they live exactly as long as the graph
// and need no process-wide map. UniformlyWeighted is one such value: a
// second Graph that aliases this one's edge slice and adds a weight
// array.
type Graph struct {
	NumVertices int
	Edges       []Edge
	Weights     []float32

	memoMu sync.Mutex
	memo   map[any]*memoEntry
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// Weight returns the weight of edge i, defaulting to 1 for unweighted
// graphs so traversal algorithms can treat every graph uniformly.
func (g *Graph) Weight(i int) float32 {
	if g.Weights == nil {
		return 1
	}
	return g.Weights[i]
}

// Validate checks structural invariants: every endpoint is in range and,
// if weights are present, there is exactly one per edge.
func (g *Graph) Validate() error {
	if g.NumVertices < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.NumVertices)
	}
	// Compare in uint64: a graph whose max vertex ID is MaxUint32 has
	// NumVertices = 1<<32, which a uint32 bound would truncate to zero.
	n := uint64(g.NumVertices)
	for i, e := range g.Edges {
		if uint64(e.Src) >= n || uint64(e.Dst) >= n {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Edges) {
		return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Edges))
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex. The scan runs once
// per graph and the result is memoized (see Memo): every later call,
// from any goroutine, returns the same shared slice.
// Callers must treat it as read-only, and per the immutability contract
// on Graph the edge list must not be mutated after the first call.
//
// Degrees are uint32 (4 bytes/vertex instead of int's 8): a single
// vertex with more than 2³² out-edges is beyond even the paper's
// billion-edge graphs, and halving the array matters at full scale.
func (g *Graph) OutDegrees() []uint32 {
	v, _ := g.Memo(outDegreesKey{}, func() (any, error) {
		deg := make([]uint32, g.NumVertices)
		for _, e := range g.Edges {
			deg[e.Src]++
		}
		return deg, nil
	})
	return v.([]uint32)
}

// outDegreesKey is the Memo key of OutDegrees.
type outDegreesKey struct{}

// memoEntry is one Memo slot: the Once makes concurrent first callers
// share one build.
type memoEntry struct {
	once sync.Once
	v    any
	err  error
}

// Memo returns the value build derives from g, computing it at most once
// per key for the life of g: concurrent callers with the same key share
// one build and its result. A failed build is not kept — the callers
// waiting on it get its error, and the next call builds afresh. Keys
// must be comparable and should be of a type unexported by the calling
// package (like context keys), so packages cannot collide; a key must
// cover every parameter the value depends on besides g's content.
// Per the immutability contract, the value must depend only on g's
// content and the key.
func (g *Graph) Memo(key any, build func() (any, error)) (any, error) {
	g.memoMu.Lock()
	e := g.memo[key]
	if e == nil {
		if g.memo == nil {
			g.memo = map[any]*memoEntry{}
		}
		e = &memoEntry{}
		g.memo[key] = e
	}
	g.memoMu.Unlock()
	e.once.Do(func() {
		e.v, e.err = build()
		if e.err != nil {
			g.memoMu.Lock()
			delete(g.memo, key)
			g.memoMu.Unlock()
		}
	})
	return e.v, e.err
}

// Clone returns a deep copy of the graph's topology and weights; the
// memo is not copied, since a clone may be mutated before it is shared
// (e.g. AttachUniformWeights).
func (g *Graph) Clone() *Graph {
	c := &Graph{NumVertices: g.NumVertices, Edges: append([]Edge(nil), g.Edges...)}
	if g.Weights != nil {
		c.Weights = append([]float32(nil), g.Weights...)
	}
	return c
}

// ErrEmptyGraph is returned by operations that need at least one vertex.
var ErrEmptyGraph = errors.New("graph: empty graph")

// CSR is a compressed-sparse-row view of a graph: Offsets[v]..Offsets[v+1]
// index the out-edges of v inside Targets. It is the access structure the
// reference (vertex-centric) algorithm implementations use. Offsets are
// uint64 — edge positions, which overflow int32 on the paper's graphs
// and have no business being signed.
type CSR struct {
	Offsets []uint64
	Targets []VertexID
	Weights []float32
}

// BuildCSR constructs a CSR adjacency view without mutating g.
func BuildCSR(g *Graph) *CSR {
	offsets := make([]uint64, g.NumVertices+1)
	for _, e := range g.Edges {
		offsets[e.Src+1]++
	}
	for v := 0; v < g.NumVertices; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]VertexID, len(g.Edges))
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, len(g.Edges))
	}
	next := make([]uint64, g.NumVertices)
	copy(next, offsets[:g.NumVertices])
	for i, e := range g.Edges {
		at := next[e.Src]
		targets[at] = e.Dst
		if weights != nil {
			weights[at] = g.Weights[i]
		}
		next[e.Src]++
	}
	return &CSR{Offsets: offsets, Targets: targets, Weights: weights}
}

// OutDegree returns the out-degree of v.
func (c *CSR) OutDegree(v VertexID) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Neighbors returns the out-neighbors of v. The returned slice aliases
// the CSR arrays and must not be modified.
func (c *CSR) Neighbors(v VertexID) []VertexID {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}
