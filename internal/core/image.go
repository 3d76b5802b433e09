package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
)

// This file lays out §3.4 "Memory Management and Data Organization":
// the edge-memory image (blocks stored sequentially, each headed by its
// source/destination interval indices and edge count) and the
// vertex-memory image (intervals stored sequentially, each headed by its
// index and vertex count, followed by the value array indexed by
// in-interval id). The images are what the one-shot preprocessing step
// writes into the ReRAM and DRAM devices; their offsets pin down every
// address the simulator charges, and the edge image is also built as
// actual bytes (hyve-prep -image).
//
// Layout (all integers little-endian uint32):
//
//	edge image:   per block (row-major, or Algorithm 2's visit order in
//	              production): srcInterval, dstInterval, edgeCount,
//	              then edgeCount × {src, dst} vertex ids
//	vertex image: per interval: index, vertexCount, then vertexCount
//	              values of the program's width (by in-interval index)

// EdgeImageHeaderBytes is the per-block header size.
const EdgeImageHeaderBytes = 12

// VertexImageHeaderBytes is the per-interval header size.
const VertexImageHeaderBytes = 8

// ScheduleBlockOrder returns the block ids (x·P + y) in the exact order
// Algorithm 2 visits them with n processing units: column-major over
// super blocks, round-robin within. §3.4 stores blocks "sequentially in
// the edge memory" — sequential in *this* order, which is what turns the
// edge memory into a pure streaming device (§3.1) and lets banks sleep
// behind the read pointer (§4.1).
func ScheduleBlockOrder(p, n int) []int {
	order := make([]int, 0, p*p)
	pn := p / n
	for y := 0; y < pn; y++ {
		for x := 0; x < pn; x++ {
			for step := 0; step < n; step++ {
				for pu := 0; pu < n; pu++ {
					src := x*n + (pu+step)%n
					dst := y*n + pu
					order = append(order, src*p+dst)
				}
			}
		}
	}
	return order
}

// BuildEdgeImage serializes the grid into the edge-memory byte image in
// row-major block order and returns it with per-block start offsets
// (indexed by block id = x·P + y).
func BuildEdgeImage(grid *partition.Grid) ([]byte, []int64) {
	order := make([]int, grid.P()*grid.P())
	for b := range order {
		order[b] = b
	}
	return buildEdgeImage(grid, order)
}

// scheduledEdgeOffsets returns the per-block start offsets of the edge
// image laid out in Algorithm 2's visit order for n processing units —
// the production layout, under which the iteration's block reads are a
// single sequential sweep — without serializing the image.
func scheduledEdgeOffsets(blocks *partition.Blocks, n int) ([]int64, error) {
	p := blocks.P()
	if n <= 0 || p%n != 0 {
		return nil, fmt.Errorf("core: P=%d not a multiple of N=%d", p, n)
	}
	return edgeImageOffsets(blocks, ScheduleBlockOrder(p, n)), nil
}

// edgeImageOffsets computes the start offset of every block (indexed by
// block id = x·P + y) in an edge image that stores the blocks in order,
// and the image size at index P²: a header plus the edges per block.
func edgeImageOffsets(blocks *partition.Blocks, order []int) []int64 {
	p := blocks.P()
	offsets := make([]int64, p*p+1)
	var at int64
	for _, b := range order {
		offsets[b] = at
		at += EdgeImageHeaderBytes + int64(blocks.BlockLen(b/p, b%p))*graph.EdgeBytes
	}
	offsets[p*p] = at
	return offsets
}

func buildEdgeImage(grid *partition.Grid, order []int) ([]byte, []int64) {
	p := grid.P()
	offsets := edgeImageOffsets(&grid.Blocks, order)
	img := make([]byte, 0, offsets[p*p])
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		img = append(img, b[:]...)
	}
	for _, b := range order {
		x, y := b/p, b%p
		blk := grid.Block(x, y)
		u32(uint32(x))
		u32(uint32(y))
		u32(uint32(len(blk)))
		for _, e := range blk {
			u32(e.Src)
			u32(e.Dst)
		}
	}
	return img, offsets
}

// ParseEdgeImage reconstructs the blocked edge list from an image,
// validating headers.
func ParseEdgeImage(img []byte, p int) (*parsedEdgeImage, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: non-positive P %d", p)
	}
	out := &parsedEdgeImage{P: p, Blocks: make([][]graph.Edge, p*p)}
	seen := make([]bool, p*p)
	at := 0
	u32 := func() (uint32, error) {
		if at+4 > len(img) {
			return 0, fmt.Errorf("core: edge image truncated at byte %d", at)
		}
		v := binary.LittleEndian.Uint32(img[at:])
		at += 4
		return v, nil
	}
	for b := 0; b < p*p; b++ {
		sx, err := u32()
		if err != nil {
			return nil, err
		}
		sy, err := u32()
		if err != nil {
			return nil, err
		}
		if int(sx) >= p || int(sy) >= p {
			return nil, fmt.Errorf("core: block header (%d,%d) outside %d×%d grid", sx, sy, p, p)
		}
		id := int(sx)*p + int(sy)
		if seen[id] {
			return nil, fmt.Errorf("core: duplicate block header (%d,%d)", sx, sy)
		}
		seen[id] = true
		n, err := u32()
		if err != nil {
			return nil, err
		}
		edges := make([]graph.Edge, n)
		for i := range edges {
			src, err := u32()
			if err != nil {
				return nil, err
			}
			dst, err := u32()
			if err != nil {
				return nil, err
			}
			edges[i] = graph.Edge{Src: src, Dst: dst}
		}
		out.Blocks[id] = edges
	}
	if at != len(img) {
		return nil, fmt.Errorf("core: %d trailing bytes in edge image", len(img)-at)
	}
	return out, nil
}

type parsedEdgeImage struct {
	P      int
	Blocks [][]graph.Edge
}

// Block returns block (x, y).
func (pe *parsedEdgeImage) Block(x, y int) []graph.Edge { return pe.Blocks[x*pe.P+y] }

// NumEdges returns the total edge count.
func (pe *parsedEdgeImage) NumEdges() int {
	n := 0
	for _, b := range pe.Blocks {
		n += len(b)
	}
	return n
}

// EdgeAddress returns the edge-memory byte address of block (x,y)'s
// first edge, given the image offsets — the address mapping the HyVE
// controller performs (§3.3 "responsible for address mapping").
func EdgeAddress(offsets []int64, p, x, y int) (int64, error) {
	if x < 0 || y < 0 || x >= p || y >= p {
		return 0, fmt.Errorf("core: block (%d,%d) out of %d×%d grid", x, y, p, p)
	}
	return offsets[x*p+y] + EdgeImageHeaderBytes, nil
}
