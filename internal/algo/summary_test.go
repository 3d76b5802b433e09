package algo

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// countRuns installs a fresh registry as the process-global recorder
// for the test and returns a reader of the functional-run counter.
func countRuns(t *testing.T) func() int64 {
	t.Helper()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(nil) })
	return func() int64 { return reg.Counter(MetricFunctionalRuns) }
}

func mustSummary(t *testing.T, p Program, g *graph.Graph) Summary {
	t.Helper()
	s, err := Summarize(p, g)
	if err != nil {
		t.Fatalf("Summarize %s: %v", p.Name(), err)
	}
	return s
}

func unmemoized(t *testing.T, p Program, g *graph.Graph) Summary {
	t.Helper()
	r, err := Run(p, g)
	if err != nil {
		t.Fatalf("Run %s: %v", p.Name(), err)
	}
	return r.Summary()
}

// TestSummarizeKeysSeparate runs programs that differ only in a
// parameter on one graph: each must get exactly its own unmemoized
// result, never another program's memo entry.
func TestSummarizeKeysSeparate(t *testing.T) {
	runs := countRuns(t)
	g := rmat(t, 300, 1800, 21)
	graph.AttachUniformWeights(g, 4, 9)

	progs := []Program{
		NewBFS(0), NewBFS(7),
		NewPageRank(), NewPageRankConverge(1e-9),
		NewSSSP(0), NewSSSP(7), NewCC(), NewSpMV(),
	}
	for round := 0; round < 2; round++ {
		for _, p := range progs {
			if got, want := mustSummary(t, p, g), unmemoized(t, p, g); got != want {
				t.Errorf("round %d %s %+v: got %+v, want %+v", round, p.Name(), p, got, want)
			}
		}
	}
	// Every program ran exactly once.
	if got, want := runs(), int64(len(progs)); got != want {
		t.Errorf("%d functional runs, want %d", got, want)
	}
	if mustSummary(t, NewBFS(0), g) == mustSummary(t, NewBFS(7), g) {
		t.Error("BFS roots 0 and 7 agree — the test graph does not separate them")
	}
	if mustSummary(t, NewPageRank(), g) == mustSummary(t, NewPageRankConverge(1e-9), g) {
		t.Error("fixed-budget and converging PageRank agree — the test graph does not separate them")
	}
}

// TestSummarizeKeepsNoErrors runs a PageRank that can never converge:
// every call must fail afresh.
func TestSummarizeKeepsNoErrors(t *testing.T) {
	runs := countRuns(t)
	g := rmat(t, 64, 256, 5)
	never := NewPageRankConverge(-1) // |Δ| > -1 always: nothing converges
	for i := 1; i <= 2; i++ {
		_, err := Summarize(never, g)
		if err == nil || !strings.Contains(err.Error(), "failed to converge") {
			t.Fatalf("call %d: %v, want a convergence failure", i, err)
		}
		if got := runs(); got != int64(i) {
			t.Fatalf("call %d: %d functional runs — the failure was memoized", i, got)
		}
	}
}

func TestSummaryMatchesResultRatios(t *testing.T) {
	g := rmat(t, 200, 1000, 3)
	r, err := Run(NewBFS(0), g)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	active := float64(r.ActiveEdges) / float64(r.EdgesProcessed)
	updated := float64(r.UpdatedGathers) / float64(r.EdgesProcessed)
	if s.ActivityRatio() != active || s.UpdateRatio() != updated {
		t.Fatalf("summary ratios %v/%v, result ratios %v/%v",
			s.ActivityRatio(), s.UpdateRatio(), active, updated)
	}
	if (Summary{}).ActivityRatio() != 0 || (Summary{}).UpdateRatio() != 0 {
		t.Fatal("empty summary has non-zero ratios")
	}
}
