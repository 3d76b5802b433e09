package partition

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Blocks is the block-count half of the interval-block partition: the
// assigner plus the P²+1 offsets that delimit every block in block-major
// edge order, without the edges themselves. The cost model, the
// controller trace, the timeline and the edge-image offsets read nothing
// else, so a simulation needs P² integers, not a copy of |E| edges.
type Blocks struct {
	Assigner Assigner
	// offsets[b]..offsets[b+1] delimit block b (id x·P + y) in the
	// flattened block-major edge order.
	offsets []int64
}

// Grid is the interval-block partitioned form of a graph: all edges
// grouped by block, stored contiguously (block after block) exactly as
// HyVE lays them out in the edge memory (§3.4: "Several blocks are
// sequentially stored in the edge memory"). Edge order inside a block and
// block-major order follow the build; the flattened edge array index
// multiplied by graph.EdgeBytes is the edge-memory byte address.
type Grid struct {
	Blocks
	// edges holds every edge, grouped by block in row-major block order
	// (block id = x·P + y), delimited by the embedded offsets.
	edges   []graph.Edge
	weights []float32
}

// Build partitions g under the assigner using a two-pass counting sort:
// O(|E|) time, no per-block allocation. It parallelizes across all
// available CPUs (see BuildParallel for the worker knob and the
// determinism argument).
func Build(g *graph.Graph, a Assigner) (*Grid, error) {
	return BuildParallel(g, a, 0)
}

// BuildParallel is Build with an explicit worker count (≤0 means
// GOMAXPROCS, 1 runs fully inline). The layout is byte-identical at any
// worker count: pass one (countBlocks) computes per-chunk block
// histograms in parallel and prefix-sums them into per-chunk write
// cursors — chunks in edge-list order, so the sort stays stable — and
// pass two scatters each chunk into its disjoint slots of the
// preallocated edge/weight arrays.
func BuildParallel(g *graph.Graph, a Assigner, workers int) (*Grid, error) {
	// Pass 1 keeps each edge's block id so the scatter pass does not
	// recompute the two interval divisions.
	bc, err := countBlocks(g, a, workers, true)
	if err != nil {
		return nil, err
	}
	ne, nb, ids := bc.ne, a.P()*a.P(), bc.ids

	// Pass 2: parallel scatter; chunks write disjoint index ranges per
	// block, so the only shared state is read-only.
	edges := make([]graph.Edge, ne)
	var weights []float32
	if g.Weights != nil {
		weights = make([]float32, ne)
	}
	_ = parallel.ForEach(bc.chunks, bc.chunks, func(c int) error {
		lo, hi := bc.bounds(c)
		cur := bc.cursors[c*nb : (c+1)*nb]
		if weights != nil {
			for i := lo; i < hi; i++ {
				at := cur[ids[i]]
				cur[ids[i]]++
				edges[at] = g.Edges[i]
				weights[at] = g.Weights[i]
			}
		} else {
			for i := lo; i < hi; i++ {
				at := cur[ids[i]]
				cur[ids[i]]++
				edges[at] = g.Edges[i]
			}
		}
		return nil
	})
	return &Grid{Blocks: Blocks{Assigner: a, offsets: bc.offsets}, edges: edges, weights: weights}, nil
}

// MetricBlockBuilds counts HashedBlocks memo misses on obs.Default():
// one per distinct (graph, P) a process partitions.
const MetricBlockBuilds = "partition.blocks.builds"

type hashedBlocksKey struct{ p int }

// HashedBlocks returns the block offsets of g under the hashed assigner
// with p intervals: the Blocks of BuildParallel(g, NewHashed(V, p)),
// computed by the same pass one without the scatter or the edge copy.
// The result is memoized on g (Graph.Memo), so every simulation of one
// graph at one P shares a single read-only *Blocks for the graph's
// lifetime. workers only sets the first build's parallelism; the
// offsets do not depend on it.
func HashedBlocks(g *graph.Graph, p, workers int) (*Blocks, error) {
	v, err := g.Memo(hashedBlocksKey{p}, func() (any, error) {
		a, err := NewHashed(g.NumVertices, p)
		if err != nil {
			return nil, err
		}
		obs.Default().Count(MetricBlockBuilds, 1)
		bc, err := countBlocks(g, a, workers, false)
		if err != nil {
			return nil, err
		}
		return &Blocks{Assigner: a, offsets: bc.offsets}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Blocks), nil
}

// blockCount is the outcome of pass one: block offsets, each chunk's
// private write cursors, chunk-major (cursors[c·P² + b]), and — when
// kept — every edge's block id.
type blockCount struct {
	offsets []int64
	cursors []int64
	ids     []int32
	chunks  int
	ne      int
}

// bounds returns chunk c's half-open range of the edge list.
func (bc *blockCount) bounds(c int) (int, int) {
	return c * bc.ne / bc.chunks, (c + 1) * bc.ne / bc.chunks
}

// countWindow is the block-id scratch each chunk reuses when the caller
// keeps no ids: small enough to stay cache-resident.
const countWindow = 1 << 14

// countBlocks is pass one of the counting sort, shared by BuildParallel
// and HashedBlocks: per-chunk block histograms over g's edge list in
// parallel, then a prefix sum in (block, chunk) order. The offsets
// delimit blocks, and each chunk's counter becomes its private write
// cursor inside the block — earlier chunks own earlier slots, which
// keeps a scatter stable. keepIDs also records every edge's block id
// (4 bytes per edge); without it each chunk reuses a small scratch.
func countBlocks(g *graph.Graph, a Assigner, workers int, keepIDs bool) (*blockCount, error) {
	if g.NumVertices != a.NumVertices() {
		return nil, fmt.Errorf("partition: assigner built for %d vertices, graph has %d",
			a.NumVertices(), g.NumVertices)
	}
	p := a.P()
	if int64(p)*int64(p) > math.MaxInt32 {
		return nil, fmt.Errorf("partition: %d intervals produce more blocks than addressable", p)
	}
	nb := p * p
	ne := len(g.Edges)

	// Chunking: one chunk per worker, but never so many that histogram
	// storage (chunks·P² cursors) dwarfs the edge list itself.
	chunks := parallel.Workers(workers)
	for chunks > 1 && (ne/chunks < 4096 || chunks*nb > 4*ne+nb) {
		chunks--
	}
	bc := &blockCount{cursors: make([]int64, chunks*nb), chunks: chunks, ne: ne}
	if keepIDs {
		bc.ids = make([]int32, ne)
	}
	_ = parallel.ForEach(chunks, chunks, func(c int) error {
		lo, hi := bc.bounds(c)
		hist := bc.cursors[c*nb : (c+1)*nb]
		if keepIDs {
			fillBlockIDs(a, g.Edges, bc.ids, lo, hi, hist)
			return nil
		}
		scratch := make([]int32, min(hi-lo, countWindow))
		for w := lo; w < hi; w += len(scratch) {
			end := min(w+len(scratch), hi)
			fillBlockIDs(a, g.Edges[w:end], scratch, 0, end-w, hist)
		}
		return nil
	})

	bc.offsets = make([]int64, nb+1)
	var total int64
	for b := 0; b < nb; b++ {
		bc.offsets[b] = total
		for c := 0; c < chunks; c++ {
			n := bc.cursors[c*nb+b]
			bc.cursors[c*nb+b] = total
			total += n
		}
	}
	bc.offsets[nb] = total
	return bc, nil
}

// fillBlockIDs computes block ids for edges[lo:hi] into ids and bumps
// the per-block histogram. The two production assigners get
// monomorphized loops — the interface-dispatched fallback costs three
// dynamic calls per edge, which at hundreds of millions of edges is the
// dominant build cost.
func fillBlockIDs(a Assigner, edges []graph.Edge, ids []int32, lo, hi int, counts []int64) {
	switch t := a.(type) {
	case *Hashed:
		p := uint32(t.p)
		if p&(p-1) == 0 {
			// Power-of-two interval count (every ChooseP result with a
			// power-of-two PU count and SRAM size): mask instead of mod.
			mask, shift := p-1, log2(p)
			for i := lo; i < hi; i++ {
				e := edges[i]
				b := int32((e.Src&mask)<<shift | e.Dst&mask)
				ids[i] = b
				counts[b]++
			}
			return
		}
		for i := lo; i < hi; i++ {
			e := edges[i]
			b := int32(e.Src%p*p + e.Dst%p)
			ids[i] = b
			counts[b]++
		}
	case *Contiguous:
		p, span := uint32(t.p), uint32(t.span)
		if span&(span-1) == 0 {
			shift := log2(span)
			for i := lo; i < hi; i++ {
				e := edges[i]
				b := int32((e.Src>>shift)*p + e.Dst>>shift)
				ids[i] = b
				counts[b]++
			}
			return
		}
		for i := lo; i < hi; i++ {
			e := edges[i]
			b := int32(e.Src/span*p + e.Dst/span)
			ids[i] = b
			counts[b]++
		}
	default:
		for i := lo; i < hi; i++ {
			b := int32(blockID(a, edges[i]))
			ids[i] = b
			counts[b]++
		}
	}
}

// GridFromParts assembles a Grid directly from pre-built storage —
// offsets delimiting p²+1 block boundaries over edges (and optional
// per-edge weights). Used by the streaming builder's readback path and
// by verifiers over v2 container grid sections. The slices are aliased,
// not copied, and must be treated as read-only.
func GridFromParts(a Assigner, offsets []int64, edges []graph.Edge, weights []float32) (*Grid, error) {
	nb := a.P() * a.P()
	if len(offsets) != nb+1 {
		return nil, fmt.Errorf("partition: %d offsets for %d blocks", len(offsets), nb)
	}
	if offsets[0] != 0 || offsets[nb] != int64(len(edges)) {
		return nil, fmt.Errorf("partition: offsets span [%d,%d], edges span [0,%d]",
			offsets[0], offsets[nb], len(edges))
	}
	if weights != nil && len(weights) != len(edges) {
		return nil, fmt.Errorf("partition: %d weights for %d edges", len(weights), len(edges))
	}
	return &Grid{Blocks: Blocks{Assigner: a, offsets: offsets}, edges: edges, weights: weights}, nil
}

// BuildBuckets partitions g with per-block dynamic arrays (append-based),
// the implementation style whose addressing overhead the paper measures
// in Fig. 12: it is equivalent in output to Build but its cost grows with
// the number of blocks. Exposed so the preprocessing experiments can
// measure that effect on real executions.
func BuildBuckets(g *graph.Graph, a Assigner) (*Grid, error) {
	if g.NumVertices != a.NumVertices() {
		return nil, fmt.Errorf("partition: assigner built for %d vertices, graph has %d",
			a.NumVertices(), g.NumVertices)
	}
	p := a.P()
	nb := p * p
	buckets := make([][]graph.Edge, nb)
	var wbuckets [][]float32
	if g.Weights != nil {
		wbuckets = make([][]float32, nb)
	}
	for i, e := range g.Edges {
		b := blockID(a, e)
		buckets[b] = append(buckets[b], e)
		if wbuckets != nil {
			wbuckets[b] = append(wbuckets[b], g.Weights[i])
		}
	}
	gr := &Grid{
		Blocks: Blocks{Assigner: a, offsets: make([]int64, nb+1)},
		edges:  make([]graph.Edge, 0, len(g.Edges)),
	}
	if g.Weights != nil {
		gr.weights = make([]float32, 0, len(g.Edges))
	}
	for b := 0; b < nb; b++ {
		gr.edges = append(gr.edges, buckets[b]...)
		if wbuckets != nil {
			gr.weights = append(gr.weights, wbuckets[b]...)
		}
		gr.offsets[b+1] = int64(len(gr.edges))
	}
	return gr, nil
}

func blockID(a Assigner, e graph.Edge) int {
	return a.IntervalOf(e.Src)*a.P() + a.IntervalOf(e.Dst)
}

// log2 returns the exponent of a power of two.
func log2(p uint32) uint32 {
	var s uint32
	for p > 1 {
		p >>= 1
		s++
	}
	return s
}

// P returns the number of intervals per dimension.
func (b *Blocks) P() int { return b.Assigner.P() }

// BlockLen returns the number of edges in block (x, y).
func (b *Blocks) BlockLen(x, y int) int {
	id := x*b.P() + y
	return int(b.offsets[id+1] - b.offsets[id])
}

// BlockOffset returns the index of block (x, y)'s first edge within the
// flattened edge array; ×graph.EdgeBytes gives the edge-memory address.
func (b *Blocks) BlockOffset(x, y int) int64 {
	return b.offsets[x*b.P()+y]
}

// NonEmpty counts blocks with at least one edge.
func (b *Blocks) NonEmpty() int {
	n := 0
	for id := 0; id < b.P()*b.P(); id++ {
		if b.offsets[id+1] > b.offsets[id] {
			n++
		}
	}
	return n
}

// IntervalEdgeCounts returns, per destination interval, the number of
// edges that update it — the per-PU workload whose balance the hash
// assignment improves.
func (b *Blocks) IntervalEdgeCounts() []int64 {
	p := b.P()
	counts := make([]int64, p)
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			counts[y] += int64(b.BlockLen(x, y))
		}
	}
	return counts
}

// NumEdges returns the total edge count.
func (gr *Grid) NumEdges() int { return len(gr.edges) }

// Block returns the edges of block (x, y): source interval x, destination
// interval y. The slice aliases grid storage and must not be modified.
func (gr *Grid) Block(x, y int) []graph.Edge {
	b := x*gr.P() + y
	return gr.edges[gr.offsets[b]:gr.offsets[b+1]]
}

// BlockWeights returns the weights of block (x, y), or nil for an
// unweighted grid.
func (gr *Grid) BlockWeights(x, y int) []float32 {
	if gr.weights == nil {
		return nil
	}
	b := x*gr.P() + y
	return gr.weights[gr.offsets[b]:gr.offsets[b+1]]
}

// Occupancy summarizes block occupancy for a virtual grid with fixed
// interval width (in vertices) without materializing the grid. It is the
// measurement behind Table 1: GraphR processes the graph in 8×8-vertex
// blocks, so Navg = |E| / non-empty blocks with intervalVerts = 8.
type Occupancy struct {
	IntervalVerts  int
	NonEmpty       int64
	TotalEdges     int64
	AvgEdgesPerBlk float64 // the paper's Navg
	MaxEdgesPerBlk int64
}

// ComputeOccupancy scans g once, hashing block coordinates.
func ComputeOccupancy(g *graph.Graph, intervalVerts int) (Occupancy, error) {
	if intervalVerts <= 0 {
		return Occupancy{}, fmt.Errorf("partition: non-positive interval width %d", intervalVerts)
	}
	counts := make(map[uint64]int64, len(g.Edges)/2+1)
	for _, e := range g.Edges {
		bx := uint64(e.Src) / uint64(intervalVerts)
		by := uint64(e.Dst) / uint64(intervalVerts)
		counts[bx<<32|by]++
	}
	occ := Occupancy{IntervalVerts: intervalVerts, TotalEdges: int64(len(g.Edges))}
	occ.NonEmpty = int64(len(counts))
	for _, c := range counts {
		if c > occ.MaxEdgesPerBlk {
			occ.MaxEdgesPerBlk = c
		}
	}
	if occ.NonEmpty > 0 {
		occ.AvgEdgesPerBlk = float64(occ.TotalEdges) / float64(occ.NonEmpty)
	}
	return occ, nil
}
