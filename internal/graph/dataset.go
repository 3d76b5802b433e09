package graph

import (
	"fmt"
	"sync"
)

// Dataset describes one of the paper's five evaluation graphs (Table 2).
// FullVertices/FullEdges are the published sizes; simulation instances
// are generated at FullVertices/Scale and FullEdges/Scale with matched
// |E|/|V| ratio and R-MAT skew (see DESIGN.md §1). The full-scale counts
// remain available to capacity/partitioning decisions so that, e.g.,
// twitter-2010 still requires the same number of intervals per megabyte
// of SRAM as in the paper.
type Dataset struct {
	Name  string // short code used across the paper: YT, WK, AS, LJ, TW
	Long  string // SNAP name
	Scale int    // down-scale divisor for the generated instance

	FullVertices int64
	FullEdges    int64

	RMAT RMATParams
	Seed uint64
}

// Datasets lists the paper's Table 2 in presentation order.
// Scales are chosen so every generated instance fits comfortably in a
// test process (largest ≈ 1.4 M edges) while |E|/|V| is preserved.
// Quadrant probabilities are fitted per dataset so the generated
// instance's 8×8 block occupancy (Table 1's Navg) matches the paper's
// measurement of the real graph: YT 1.44, WK 1.23, AS 2.38, LJ 1.49,
// TW 1.73 (verified by the partition tests and the table1 experiment).
var Datasets = []Dataset{
	{Name: "YT", Long: "com-youtube", Scale: 8, FullVertices: 1_160_000, FullEdges: 2_990_000, RMAT: RMATParams{A: 0.67, B: 0.11, C: 0.11, D: 0.11, Noise: 0.05}, Seed: 0xB10C_0001},
	{Name: "WK", Long: "wiki-talk", Scale: 8, FullVertices: 2_390_000, FullEdges: 5_020_000, RMAT: RMATParams{A: 0.64, B: 0.12, C: 0.12, D: 0.12, Noise: 0.05}, Seed: 0xB10C_0002},
	{Name: "AS", Long: "as-skitter", Scale: 8, FullVertices: 1_690_000, FullEdges: 11_100_000, RMAT: RMATParams{A: 0.73, B: 0.09, C: 0.09, D: 0.09, Noise: 0.05}, Seed: 0xB10C_0003},
	{Name: "LJ", Long: "live-journal", Scale: 64, FullVertices: 4_850_000, FullEdges: 69_000_000, RMAT: RMATParams{A: 0.60, B: 0.1334, C: 0.1333, D: 0.1333, Noise: 0.05}, Seed: 0xB10C_0004},
	{Name: "TW", Long: "twitter-2010", Scale: 1024, FullVertices: 41_700_000, FullEdges: 1_470_000_000, RMAT: RMATParams{A: 0.57, B: 0.1434, C: 0.1433, D: 0.1433, Noise: 0.05}, Seed: 0xB10C_0005},
}

// DatasetByName returns the dataset with the given short code.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Name == name || d.Long == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("graph: unknown dataset %q", name)
}

// GenVertices is the vertex count of the generated (down-scaled) instance.
func (d Dataset) GenVertices() int { return int(d.FullVertices / int64(d.Scale)) }

// GenEdges is the edge count of the generated (down-scaled) instance.
func (d Dataset) GenEdges() int { return int(d.FullEdges / int64(d.Scale)) }

// Generate materializes the synthetic instance of the dataset.
func (d Dataset) Generate() (*Graph, error) {
	return GenerateRMAT(d.GenVertices(), d.GenEdges(), d.RMAT, d.Seed)
}

// datasetCache maps cacheKey → *datasetEntry. Each key has its own
// Once, so a cold load blocks only the callers of the same instance:
// different datasets generate or load concurrently.
var datasetCache sync.Map

type datasetEntry struct {
	once sync.Once
	g    *Graph
	err  error
}

// cacheKey identifies the generated instance, not just the dataset: a
// caller sweeping scaled or reseeded variants of one dataset must not be
// handed the graph generated for different parameters.
func (d Dataset) cacheKey() string {
	return fmt.Sprintf("%s/scale%d/seed%x", d.Name, d.Scale, d.Seed)
}

// Load returns the dataset's graph, memoized process-wide: the
// experiment harness touches every dataset from many runners and
// regenerating a million-edge R-MAT instance per figure would dominate
// run time. Concurrent callers of one instance share a single load and
// get one pointer; a failed load is not kept, so the next call retries.
// When a prepared directory is set (SetPreparedDir) and holds a
// container for this instance, it is mmap-loaded instead of generated
// — bit-identical by construction and validated on open (see
// prepared.go). Callers must not mutate the returned graph; use Clone.
func (d Dataset) Load() (*Graph, error) {
	key := d.cacheKey()
	v, _ := datasetCache.LoadOrStore(key, &datasetEntry{})
	e := v.(*datasetEntry)
	e.once.Do(func() {
		e.g, e.err = d.load()
		if e.err != nil {
			datasetCache.CompareAndDelete(key, e)
		}
	})
	return e.g, e.err
}

// load generates the instance, or reads it from the prepared directory
// when that holds a container for it.
func (d Dataset) load() (*Graph, error) {
	if dir := PreparedDir(); dir != "" {
		g, err := d.loadPrepared(dir)
		if err != nil {
			return nil, err
		}
		if g != nil {
			return g, nil
		}
	}
	return d.Generate()
}
