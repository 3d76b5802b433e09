package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// The core cross product every sweep workload covers: 5 datasets × 5
// programs × 5 accelerator configurations = 125 points.
var (
	allDatasets = []string{"YT", "WK", "AS", "LJ", "TW"}
	allAlgos    = []string{"PR", "BFS", "CC", "SSSP", "SpMV"}
	allConfigs  = []string{"hyve", "hyve-opt", "sd", "dram", "reram"}
	// sramChoicesMB are the per-PU on-chip vertex memory sizes a seed
	// picks from.
	sramChoicesMB = []int64{1, 2, 4}
)

// point is one (dataset, algorithm, configuration, SRAM) coordinate.
type point struct {
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Config  string `json:"config"`
	SRAMMB  int64  `json:"sram_mb"`
}

func (p point) String() string {
	return fmt.Sprintf("%s/%s/%s/%dMB", p.Dataset, p.Algo, p.Config, p.SRAMMB)
}

// identity is the point as the simulator sees it: configurations
// without on-chip vertex memory ignore the SRAM size, so two requests
// differing only there are the same point (and the same cache entry).
func (p point) identity() point {
	if !usesSRAM(p.Config) {
		p.SRAMMB = 0
	}
	return p
}

// usesSRAM reports whether a configuration has on-chip vertex memory.
func usesSRAM(config string) bool {
	return config == "hyve" || config == "hyve-opt" || config == "sd"
}

// sweepInput is a seeded sweep: the three lists in seeded order and the
// SRAM size every SRAM configuration gets.
type sweepInput struct {
	Datasets, Algos, Configs []string
	SRAMMB                   int64
}

// sweepFor derives round k (from 0) of a seed's sweep: the seed picks
// the SRAM size once and a fresh permutation of each list for every
// round. Every round covers the same points; only the order changes.
// A program's peak memory varies with that order (hyve-sim's repeats
// within a few percent for one order and differs by up to 20% between
// orders), so a run's median over rounds covers several orders instead
// of resting on one.
func sweepFor(seed int64, round int) sweepInput {
	r := rand.New(rand.NewSource(seed))
	in := sweepInput{SRAMMB: sramChoicesMB[r.Intn(len(sramChoicesMB))]}
	for k := 0; k <= round; k++ {
		in.Datasets, in.Algos, in.Configs = shuffled(r, allDatasets), shuffled(r, allAlgos), shuffled(r, allConfigs)
	}
	return in
}

func shuffled(r *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Len is the sweep's point count.
func (in sweepInput) Len() int { return len(in.Datasets) * len(in.Algos) * len(in.Configs) }

// At maps a sweep index dataset-major, then algorithm, then
// configuration: the order hyve-sim emits and hyve-sweepd merges.
func (in sweepInput) At(i int) point {
	per := len(in.Algos) * len(in.Configs)
	return point{
		Dataset: in.Datasets[i/per],
		Algo:    in.Algos[i/len(in.Configs)%len(in.Algos)],
		Config:  in.Configs[i%len(in.Configs)],
		SRAMMB:  in.SRAMMB,
	}
}

// Points lists the sweep in order.
func (in sweepInput) Points() []point {
	out := make([]point, in.Len())
	for i := range out {
		out[i] = in.At(i)
	}
	return out
}

// Flags renders the sweep as program flags shared by hyve-sim and
// hyve-sweepd.
func (in sweepInput) Flags() []string {
	return []string{
		"-dataset", strings.Join(in.Datasets, ","), "-algo", strings.Join(in.Algos, ","),
		"-config", strings.Join(in.Configs, ","),
		"-sram", fmt.Sprint(in.SRAMMB),
	}
}

// Serve request mix. Every (dataset, algorithm) pair gets an equal
// share of the requests, so each algorithm (SSSP included) gets a fifth
// of the traffic. A pair's 8 keys are its configurations, the three
// SRAM configurations at each of two seeded SRAM sizes: 5×5×8 = 200
// keys, each a distinct simulation point. Within a pair the seed orders
// the keys by popularity, and each rank k gets a Zipf share ∝ 1/k^s of
// the pair's requests, rounded to whole requests (largest remainder);
// the seed then shuffles the whole sequence. Exact shares keep the
// number of first touches, and of requests per class, the same for
// every seed; only which points and in what order change.
//
// s = 1 is Zipf's law proper, at the skewed end of what web request
// popularity measures (exponents 0.64–0.83 in Breslau et al., "Web
// Caching and Zipf-like Distributions", INFOCOM 1999). At 12 requests
// per pair it gives ranks 4, 2, 1, 1, 1, 1, 1, 1: every key is
// requested, so a round makes 200 first touches and 100 repeats.
const (
	serveSRAMs    = 2   // SRAM sizes per seed
	zipfExponent  = 1.0 // share of rank k ∝ 1/k^s
	serveRequests = 300 // requests in one serve round (a multiple of 25)
)

// serveInput is a seeded request sequence over a fixed key space.
type serveInput struct {
	Keys     []point // key space, grouped by (dataset, algorithm)
	Requests []int   // indices into Keys, in send order
}

// serveFor derives the key space and the request sequence from a seed.
func serveFor(seed int64, n int) serveInput {
	r := rand.New(rand.NewSource(seed))
	srams := shuffledInts(r, sramChoicesMB)[:serveSRAMs]
	sort.Slice(srams, func(i, j int) bool { return srams[i] < srams[j] })

	var in serveInput
	pairs := len(allDatasets) * len(allAlgos)
	for _, d := range allDatasets {
		for _, a := range allAlgos {
			var g []int // this pair's keys, most popular first
			for _, c := range allConfigs {
				sizes := []int64{0} // the SRAM size is not part of this point
				if usesSRAM(c) {
					sizes = srams
				}
				for _, s := range sizes {
					g = append(g, len(in.Keys))
					in.Keys = append(in.Keys, point{d, a, c, s})
				}
			}
			r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			for rank, count := range zipfCounts(n/pairs, len(g), zipfExponent) {
				for c := 0; c < count; c++ {
					in.Requests = append(in.Requests, g[rank])
				}
			}
		}
	}
	r.Shuffle(len(in.Requests), func(i, j int) {
		in.Requests[i], in.Requests[j] = in.Requests[j], in.Requests[i]
	})
	return in
}

// zipfCounts splits n requests over ranks in proportion to 1/k^s,
// rounding by largest remainder so the counts sum to n.
func zipfCounts(n, ranks int, s float64) []int {
	w := make([]float64, ranks)
	var total float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	counts := make([]int, ranks)
	rem := make([]int, ranks)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		w[k] = exact - float64(counts[k])
		rem[k] = k
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

func shuffledInts(r *rand.Rand, xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// firstTouches marks, for each request, whether it is the first
// request of its point identity in the sequence (a cold touch).
func (in serveInput) firstTouches() []bool {
	seen := map[point]bool{}
	out := make([]bool, len(in.Requests))
	for i, k := range in.Requests {
		id := in.Keys[k].identity()
		out[i] = !seen[id]
		seen[id] = true
	}
	return out
}

// distinct lists the point identities the sequence touches, in first
// touch order.
func (in serveInput) distinct() []point {
	var out []point
	first := in.firstTouches()
	for i, k := range in.Requests {
		if first[i] {
			out = append(out, in.Keys[k].identity())
		}
	}
	return out
}
