package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func imageFixture(t *testing.T) (*graph.Graph, partition.Assigner, *partition.Grid) {
	t.Helper()
	g, err := graph.GenerateRMAT(600, 4000, graph.DefaultRMAT, 17)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := partition.NewHashed(g.NumVertices, 8)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := partition.Build(g, asg)
	if err != nil {
		t.Fatal(err)
	}
	return g, asg, grid
}

func TestEdgeImageRoundTrip(t *testing.T) {
	g, _, grid := imageFixture(t)
	img, offsets := BuildEdgeImage(grid)
	// Size: P² headers + all edges.
	wantSize := int64(8*8)*EdgeImageHeaderBytes + int64(g.NumEdges())*graph.EdgeBytes
	if int64(len(img)) != wantSize {
		t.Fatalf("image size %d, want %d", len(img), wantSize)
	}
	parsed, err := ParseEdgeImage(img, 8)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumEdges() != g.NumEdges() {
		t.Fatalf("parsed %d edges, want %d", parsed.NumEdges(), g.NumEdges())
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			want := grid.Block(x, y)
			got := parsed.Block(x, y)
			if len(got) != len(want) {
				t.Fatalf("block (%d,%d): %d edges, want %d", x, y, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("block (%d,%d) edge %d: %v vs %v", x, y, i, got[i], want[i])
				}
			}
		}
	}
	// Offsets are monotone and end at the image size.
	for b := 0; b < 64; b++ {
		if offsets[b+1] <= offsets[b] {
			t.Fatalf("offsets not monotone at block %d", b)
		}
	}
	if offsets[64] != int64(len(img)) {
		t.Fatalf("final offset %d != image size %d", offsets[64], len(img))
	}
}

func TestEdgeImageRejectsCorruption(t *testing.T) {
	_, _, grid := imageFixture(t)
	img, _ := BuildEdgeImage(grid)
	if _, err := ParseEdgeImage(img[:len(img)-3], 8); err == nil {
		t.Error("truncated image accepted")
	}
	corrupt := append([]byte(nil), img...)
	corrupt[0] ^= 0xFF // break the first block header
	if _, err := ParseEdgeImage(corrupt, 8); err == nil {
		t.Error("corrupt header accepted")
	}
	if _, err := ParseEdgeImage(append(img, 0, 0, 0, 0), 8); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := ParseEdgeImage(img, 0); err == nil {
		t.Error("P=0 accepted")
	}
}

func TestEdgeAddressMapping(t *testing.T) {
	_, _, grid := imageFixture(t)
	img, offsets := BuildEdgeImage(grid)
	// The address of each block's first edge must point at that edge's
	// bytes in the image.
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			blk := grid.Block(x, y)
			if len(blk) == 0 {
				continue
			}
			addr, err := EdgeAddress(offsets, 8, x, y)
			if err != nil {
				t.Fatal(err)
			}
			src := uint32(img[addr]) | uint32(img[addr+1])<<8 | uint32(img[addr+2])<<16 | uint32(img[addr+3])<<24
			if src != blk[0].Src {
				t.Fatalf("block (%d,%d) address %d points at src %d, want %d", x, y, addr, src, blk[0].Src)
			}
		}
	}
	if _, err := EdgeAddress(offsets, 8, 8, 0); err == nil {
		t.Error("out-of-grid block accepted")
	}
	if _, err := EdgeAddress(offsets, 8, -1, 0); err == nil {
		t.Error("negative block accepted")
	}
}

// The scheduled layout must cover every block exactly once and make the
// traced iteration a sequential sweep.
func TestScheduleBlockOrderIsPermutation(t *testing.T) {
	for _, pn := range [][2]int{{8, 8}, {16, 8}, {32, 8}, {24, 4}} {
		p, n := pn[0], pn[1]
		order := ScheduleBlockOrder(p, n)
		if len(order) != p*p {
			t.Fatalf("P=%d N=%d: order has %d entries, want %d", p, n, len(order), p*p)
		}
		seen := make([]bool, p*p)
		for _, b := range order {
			if b < 0 || b >= p*p || seen[b] {
				t.Fatalf("P=%d N=%d: order not a permutation at %d", p, n, b)
			}
			seen[b] = true
		}
	}
}

func TestScheduledImageRoundTrip(t *testing.T) {
	g, _, grid := imageFixture(t)
	img, offsets := buildEdgeImage(grid, ScheduleBlockOrder(8, 8))
	parsed, err := ParseEdgeImage(img, 8)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumEdges() != g.NumEdges() {
		t.Fatalf("parsed %d edges, want %d", parsed.NumEdges(), g.NumEdges())
	}
	for x := 0; x < 8; x++ {
		for y := 0; y < 8; y++ {
			want := grid.Block(x, y)
			got := parsed.Block(x, y)
			if len(got) != len(want) {
				t.Fatalf("block (%d,%d): %d edges, want %d", x, y, len(got), len(want))
			}
		}
	}
	// Offsets in schedule order are strictly increasing.
	order := ScheduleBlockOrder(8, 8)
	var prev int64 = -1
	for _, b := range order {
		if offsets[b] <= prev {
			t.Fatalf("scheduled offsets not increasing at block %d", b)
		}
		prev = offsets[b]
	}
	if _, err := scheduledEdgeOffsets(&grid.Blocks, 3); err == nil {
		t.Error("P not multiple of N accepted")
	}
}

// The trace and its check take block offsets computed without the
// bytes: each must point at its own block's header in the serialized
// image, in both layouts, and the last must be the image size.
func TestEdgeImageOffsetsMatchBytes(t *testing.T) {
	_, _, grid := imageFixture(t)
	rowMajor, rowOffsets := BuildEdgeImage(grid)
	scheduled, _ := buildEdgeImage(grid, ScheduleBlockOrder(8, 2))
	schedOffsets, err := scheduledEdgeOffsets(&grid.Blocks, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		img     []byte
		offsets []int64
	}{{"row-major", rowMajor, rowOffsets}, {"scheduled", scheduled, schedOffsets}} {
		for b := 0; b < 64; b++ {
			at := c.offsets[b]
			x := binary.LittleEndian.Uint32(c.img[at:])
			y := binary.LittleEndian.Uint32(c.img[at+4:])
			n := binary.LittleEndian.Uint32(c.img[at+8:])
			if int(x) != b/8 || int(y) != b%8 || int(n) != grid.BlockLen(b/8, b%8) {
				t.Fatalf("%s: offset %d of block %d reads header (%d,%d,%d)", c.name, at, b, x, y, n)
			}
		}
		if c.offsets[64] != int64(len(c.img)) {
			t.Fatalf("%s: size %d, image is %d bytes", c.name, c.offsets[64], len(c.img))
		}
	}
}
