package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},  // 10 samples above the median
		{19, 0.5, 10, false}, // only 9 above
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{125, 0.99, 124, false}, // one sweep's points never give a p99
		{0, 0.5, 0, false},
	} {
		v, ok := percentile(samples(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}

	oc := &outcome{notes: map[string]any{}}
	reportPercentile(oc, "p99", samples(500), 0.99)
	if len(oc.report) != 0 {
		t.Fatalf("p99 of 500 samples reported: %v", oc.report)
	}
	if oc.notes["p99_samples"] != 500 {
		t.Fatalf("sample count not reported beside the percentile: %v", oc.notes)
	}
}

func TestSeedReproducesInputs(t *testing.T) {
	if a, b := sweepFor(7, 2), sweepFor(7, 2); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sweep orders")
	}
	r0, r1 := sweepFor(7, 0), sweepFor(7, 1)
	if r0.SRAMMB != r1.SRAMMB || reflect.DeepEqual(r0.Points(), r1.Points()) {
		t.Fatalf("rounds 0 and 1 should share the SRAM size and differ in order: %+v %+v", r0, r1)
	}
	if !reflect.DeepEqual(pointSet(r0.Points()), pointSet(r1.Points())) {
		t.Fatal("rounds 0 and 1 cover different points")
	}
	if a, b := serveFor(7, 500), serveFor(7, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	same := 0
	for seed := int64(1); seed <= 20; seed++ {
		if reflect.DeepEqual(serveFor(seed, 500).Requests, serveFor(seed+100, 500).Requests) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d seed pairs produced identical sequences", same)
	}
}

func TestSweepCoversCrossProductDatasetMajor(t *testing.T) {
	in := sweepFor(3, 0)
	pts := in.Points()
	if len(pts) != 125 {
		t.Fatalf("%d points, want 125", len(pts))
	}
	seen := map[point]bool{}
	for i, p := range pts {
		if seen[p] {
			t.Fatalf("point %v repeated", p)
		}
		seen[p] = true
		if p.Dataset != in.Datasets[i/25] || p.Algo != in.Algos[i/5%5] || p.Config != in.Configs[i%5] {
			t.Fatalf("index %d maps to %v, not dataset-major", i, p)
		}
	}
}

func TestServeMixGivesEveryAlgorithmEqualShare(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		in := serveFor(seed, serveRequests)
		if len(in.Keys) != 200 || len(in.Requests) != serveRequests {
			t.Fatalf("seed %d: %d keys, %d requests; want 200, %d", seed, len(in.Keys), len(in.Requests), serveRequests)
		}
		share := map[string]int{}
		for _, k := range in.Requests {
			share[in.Keys[k].Algo]++
		}
		for _, a := range allAlgos {
			if share[a] != serveRequests/5 {
				t.Errorf("seed %d: %s has %d requests, want %d", seed, a, share[a], serveRequests/5)
			}
		}
		// Exact Zipf shares make the number of first touches
		// seed-independent, and every declared key is requested.
		first := in.firstTouches()
		if got := countTrue(first); got != len(in.Keys) {
			t.Errorf("seed %d: %d first touches, want one per key (%d)", seed, got, len(in.Keys))
		}
		if got := len(in.distinct()); got != countTrue(first) {
			t.Fatalf("seed %d: distinct %d != first touches %d", seed, got, countTrue(first))
		}
	}
}

func TestZipfCountsSumAndDecrease(t *testing.T) {
	for _, n := range []int{1, 12, 100, 1001} {
		c := zipfCounts(n, 8, zipfExponent)
		total := 0
		for k, x := range c {
			total += x
			if k > 0 && x > c[k-1] {
				t.Fatalf("n=%d: counts %v not non-increasing", n, c)
			}
		}
		if total != n {
			t.Fatalf("n=%d: counts %v sum to %d", n, c, total)
		}
	}
}

func pointSet(pts []point) map[point]bool {
	set := map[point]bool{}
	for _, p := range pts {
		set[p] = true
	}
	return set
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// fakeReference stands in for simulated documents so the checks can be
// tested without running the simulator.
func fakeReference(pts []point) *reference {
	ref := &reference{docs: map[point][]byte{}, edges: map[point]int64{}}
	for i, p := range pts {
		ref.docs[p.identity()] = []byte(`{"doc":` + strings.Repeat("7", i+1) + "}\n")
		ref.edges[p.identity()] = int64(i + 1)
	}
	return ref
}

func TestFlippedByteIsAFailure(t *testing.T) {
	pts := sweepFor(1, 0).Points()[:4]
	ref := fakeReference(pts)
	var out []byte
	for _, p := range pts {
		out = append(out, ref.doc(p)...)
	}
	if failed, edges := checkStream(out, pts, ref); failed != 0 || edges != 1+2+3+4 {
		t.Fatalf("clean stream: failed=%d edges=%d", failed, edges)
	}
	bad := append([]byte(nil), out...)
	bad[len(ref.doc(pts[0]))+3] ^= 1 // one byte inside the second document
	if failed, _ := checkStream(bad, pts, ref); failed != 1 {
		t.Fatalf("one flipped byte: failed=%d, want 1", failed)
	}
	if failed, _ := checkStream(out[:len(out)-len(ref.doc(pts[3]))], pts, ref); failed != 1 {
		t.Fatalf("missing document: failed=%d, want 1", failed)
	}
	if failed, _ := checkStream(append(append([]byte(nil), out...), ref.doc(pts[3])...), pts, ref); failed != 1 {
		t.Fatalf("duplicate document: failed=%d, want 1", failed)
	}
}

func TestSingleRefusalRaisesErrorRate(t *testing.T) {
	in := serveFor(5, 50)
	ref := fakeReference(in.Keys)
	res := make([]reply, len(in.Requests))
	for i, k := range in.Requests {
		res[i] = reply{status: http.StatusOK, body: ref.doc(in.Keys[k])}
	}
	var clean serveRound
	clean.score(in, ref, res)
	if clean.failed != 0 {
		t.Fatalf("clean replies: %d failed", clean.failed)
	}

	res[17] = reply{status: http.StatusTooManyRequests}
	var r serveRound
	r.score(in, ref, res)
	if r.failed != 1 || r.rejected != 1 {
		t.Fatalf("one 429: failed=%d rejected=%d, want 1 and 1", r.failed, r.rejected)
	}

	o := &options{workload: "serve-zipf", nproc: 1}
	r.wall, r.cpu = 1e9, 1e9
	oc := serveOutcome(o, in, []serveRound{r})
	var buf bytes.Buffer
	if err := emit(&buf, o, workloads["serve-zipf"], oc); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != 1 || last.Attempted != len(in.Requests) {
		t.Fatalf("result line %+v: want correct=false, failed=1 of %d", last, len(in.Requests))
	}
	if !strings.Contains(buf.String(), `"error_rate":0.02`) {
		t.Fatalf("report does not carry error_rate 1/50:\n%s", buf.String())
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "point", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "algo.run", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "algo.run", Start: 40, End: 60}, // overlaps the first
		{ID: 4, Parent: 2, Name: "graph.generate", Start: 20, End: 30},
	}
	self := tr.selfByLayer()
	if self[""] != 50 || self["algo"] != 30+20 || self["graph"] != 10 {
		t.Fatalf("self times %v", self)
	}
}

func TestReferenceComesFromGenerationNotContainers(t *testing.T) {
	p := point{"YT", "SSSP", "dram", 0}
	// A forged container that Dataset.Load refuses: a reference built
	// through Load would fail here, or would come from the container.
	d, err := graph.DatasetByName(p.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(d.PreparedPath(dir), []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	graph.SetPreparedDir(dir)
	defer graph.SetPreparedDir("")
	if _, err := d.Load(); err == nil {
		t.Fatal("Dataset.Load accepted the forged container (already memoized?); the test cannot tell where the reference comes from")
	}
	got, err := computeReference([]point{p}, 1)
	if err != nil {
		t.Fatalf("reference read the prepared directory: %v", err)
	}

	graph.SetPreparedDir("")
	want, err := computeReference([]point{p}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.doc(p), want.doc(p)) {
		t.Fatal("reference changed when a prepared directory was set")
	}
}
