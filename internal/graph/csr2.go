package graph

import (
	"encoding/binary"
	"fmt"
)

// CompressedCSR is the v2 container's adjacency view: CSR offsets plus
// destination arrays stored as zigzag-delta varints per source block.
// Nothing is materialized at load time — offsets and the block directory
// alias the mapped file, and targets decode lazily through a per-block
// cursor. The structure is validated once at load (Validate), after
// which every accessor is bounds-safe on the hostile-input surface too:
// decode never writes and never reads outside tgts.
//
// Access cost: a cold NeighborSeeker.Seek decodes from the block start
// (≤ blockVerts source vertices); an ascending scan over sources — the
// access pattern of every CSR consumer in this repository — amortizes to
// one sequential decode of the whole stream, the pattern "Demystifying
// Memory Access Patterns of FPGA-Based Graph Processing Accelerators"
// identifies as the one that must stay sequential.
type CompressedCSR struct {
	numVerts   int
	blockVerts int
	offsets    []uint64 // numVerts+1 edge offsets
	tidx       []uint64 // nBlocks+1 byte offsets into tgts
	tgts       []byte   // zigzag-delta varint destination stream
}

// NumVertices returns the vertex count.
func (c *CompressedCSR) NumVertices() int { return c.numVerts }

// NumEdges returns the edge count.
func (c *CompressedCSR) NumEdges() int { return int(c.offsets[c.numVerts]) }

// BlockVerts returns the source-vertex width of one compressed block.
func (c *CompressedCSR) BlockVerts() int { return c.blockVerts }

// OutDegree returns the out-degree of v.
func (c *CompressedCSR) OutDegree(v VertexID) int {
	return int(c.offsets[v+1] - c.offsets[v])
}

// numBlocks returns the block count.
func (c *CompressedCSR) numBlocks() int {
	return (c.numVerts + c.blockVerts - 1) / c.blockVerts
}

// NeighborSeeker is a stateful cursor over a CompressedCSR: Seek/Append
// on ascending vertex ids within a block resume from the cursor's
// current position, so a full ascending sweep decodes each varint
// exactly once.
type NeighborSeeker struct {
	c    *CompressedCSR
	blk  int    // block the cursor is positioned in, -1 if none
	pos  uint64 // byte position in tgts
	edge uint64 // edge index (global, in offsets space) at pos
	prev int64  // delta-decode accumulator
}

// Init points the seeker at c and resets it.
func (s *NeighborSeeker) Init(c *CompressedCSR) {
	s.c = c
	s.blk = -1
}

// seekEdge positions the cursor at global edge index target, which must
// lie in block b at or after the cursor's current position (the caller
// re-bases on block change).
func (s *NeighborSeeker) seekEdge(b int, target uint64) {
	c := s.c
	if s.blk != b || s.edge > target {
		s.blk = b
		s.pos = c.tidx[b]
		s.edge = c.offsets[min(b*c.blockVerts, c.numVerts)]
		s.prev = 0
	}
	end := c.tidx[b+1]
	for s.edge < target && s.pos < end {
		u, n := binary.Uvarint(c.tgts[s.pos:end])
		if n <= 0 {
			// Impossible after Validate; stop rather than spin.
			s.pos = end
			return
		}
		s.pos += uint64(n)
		s.prev += unzigzag(u)
		s.edge++
	}
}

// Append appends v's out-neighbors to buf and returns it.
func (s *NeighborSeeker) Append(v VertexID, buf []VertexID) []VertexID {
	c := s.c
	b := int(v) / c.blockVerts
	lo, hi := c.offsets[v], c.offsets[v+1]
	s.seekEdge(b, lo)
	end := c.tidx[b+1]
	for s.edge < hi && s.pos < end {
		u, n := binary.Uvarint(c.tgts[s.pos:end])
		if n <= 0 {
			break
		}
		s.pos += uint64(n)
		s.prev += unzigzag(u)
		s.edge++
		buf = append(buf, VertexID(s.prev))
	}
	return buf
}

// ForEachEdge streams every (src, dst) pair in CSR order with one
// sequential decode pass over the whole target stream.
func (c *CompressedCSR) ForEachEdge(fn func(src, dst VertexID)) {
	var s NeighborSeeker
	s.Init(c)
	buf := make([]VertexID, 0, 256)
	for v := 0; v < c.numVerts; v++ {
		buf = s.Append(VertexID(v), buf[:0])
		for _, d := range buf {
			fn(VertexID(v), d)
		}
	}
}

// Materialize decodes the full CSR into plain arrays (Offsets aliases
// the container's storage; Targets is freshly allocated; Weights is nil
// — v2 stores weights in edge-list order only). Intended for verifier
// paths, not the load path.
func (c *CompressedCSR) Materialize() *CSR {
	targets := make([]VertexID, 0, c.NumEdges())
	c.ForEachEdge(func(_, dst VertexID) { targets = append(targets, dst) })
	return &CSR{Offsets: c.offsets, Targets: targets}
}

// Validate decodes every block once and checks the full structural
// contract: each block's varint stream is well-formed and exactly
// consumed, decodes to exactly the edge count its offset range promises,
// and every target lies in [0, numVerts). Readers run this at load so
// later accessors can trust the stream.
func (c *CompressedCSR) Validate() error {
	nb := c.numBlocks()
	nv := uint64(c.numVerts)
	for b := 0; b < nb; b++ {
		lo := c.offsets[min(b*c.blockVerts, c.numVerts)]
		hi := c.offsets[min((b+1)*c.blockVerts, c.numVerts)]
		pos, end := c.tidx[b], c.tidx[b+1]
		var prev int64
		for e := lo; e < hi; e++ {
			u, n := binary.Uvarint(c.tgts[pos:end])
			if n <= 0 {
				return fmt.Errorf("graph: v2 CSR block %d: truncated varint at edge %d", b, e)
			}
			pos += uint64(n)
			prev += unzigzag(u)
			if prev < 0 || uint64(prev) >= nv {
				return fmt.Errorf("graph: v2 CSR block %d: target %d out of range [0,%d)", b, prev, nv)
			}
		}
		if pos != end {
			return fmt.Errorf("graph: v2 CSR block %d: %d trailing bytes after %d edges", b, end-pos, hi-lo)
		}
	}
	return nil
}
