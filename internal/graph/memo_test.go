package graph

import (
	"errors"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemoBuildsOncePerKey(t *testing.T) {
	g := mustChain(t, 8)
	type key struct{ n int }
	var builds atomic.Int64
	build := func(n int) func() (any, error) {
		return func() (any, error) {
			builds.Add(1)
			return n * 10, nil
		}
	}
	var wg sync.WaitGroup
	got := make([]any, 32)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = g.Memo(key{i % 2}, build(i%2))
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for 2 keys", n)
	}
	for i, v := range got {
		if v != (i%2)*10 {
			t.Fatalf("caller %d got %v, want %d", i, v, (i%2)*10)
		}
	}
	// A fresh instance of equal content has its own memo.
	if v, _ := mustChain(t, 8).Memo(key{0}, build(7)); v != 70 {
		t.Fatalf("fresh instance reused another graph's memo: %v", v)
	}
}

func TestMemoDoesNotKeepErrors(t *testing.T) {
	g := mustChain(t, 4)
	boom := errors.New("boom")
	calls := 0
	build := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, err := g.Memo("k", build); err != boom {
		t.Fatalf("first call: %v, want boom", err)
	}
	if v, err := g.Memo("k", build); err != nil || v != "ok" {
		t.Fatalf("second call: %v, %v — the error was memoized", v, err)
	}
	if v, _ := g.Memo("k", build); v != "ok" || calls != 2 {
		t.Fatalf("success not memoized: %v after %d builds", v, calls)
	}
}

func TestUniformlyWeightedAliasesEdges(t *testing.T) {
	base, err := GenerateRMAT(512, 4096, DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := base.UniformlyWeighted(8, 0x5EED)
	if w2 := base.UniformlyWeighted(8, 0x5EED); w2 != w {
		t.Fatal("second derivation returned a different instance")
	}
	if &w.Edges[0] != &base.Edges[0] || len(w.Edges) != len(base.Edges) || w.NumVertices != base.NumVertices {
		t.Fatal("weighted derivative does not alias the base edge slice")
	}
	if base.Weighted() {
		t.Fatal("deriving weights mutated the base graph")
	}
	want := base.Clone()
	AttachUniformWeights(want, 8, 0x5EED)
	for i := range want.Weights {
		if math.Float32bits(w.Weights[i]) != math.Float32bits(want.Weights[i]) {
			t.Fatalf("weight %d = %v, want %v", i, w.Weights[i], want.Weights[i])
		}
	}
	if other := base.UniformlyWeighted(8, 0x5EEE); other == w {
		t.Fatal("a different seed shared the derivative")
	}
	if other := base.UniformlyWeighted(4, 0x5EED); other == w {
		t.Fatal("a different maximum weight shared the derivative")
	}
}

// TestDatasetLoadConcurrent loads every dataset from many goroutines at
// once: each instance must come back as one pointer, and the race
// detector must stay quiet.
func TestDatasetLoadConcurrent(t *testing.T) {
	const perKey = 8
	got := make([][]*Graph, len(Datasets))
	var wg sync.WaitGroup
	for i, d := range Datasets {
		got[i] = make([]*Graph, perKey)
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func(i, j int, d Dataset) {
				defer wg.Done()
				g, err := d.Load()
				if err != nil {
					t.Error(err)
					return
				}
				got[i][j] = g
			}(i, j, d)
		}
	}
	wg.Wait()
	for i, gs := range got {
		for j, g := range gs {
			if g == nil || g != gs[0] {
				t.Fatalf("%s: caller %d got a different instance", Datasets[i].Name, j)
			}
			if i > 0 && g == got[0][0] {
				t.Fatalf("%s shares %s's instance", Datasets[i].Name, Datasets[0].Name)
			}
		}
	}
}

// TestDatasetLoadKeysIndependent holds one instance's load open and
// shows another instance still loads: cold loads of different datasets
// do not wait on each other.
func TestDatasetLoadKeysIndependent(t *testing.T) {
	held, free := prepTestDataset("KH", 0x7001), prepTestDataset("KF", 0x7002)
	t.Cleanup(func() {
		datasetCache.Delete(held.cacheKey())
		datasetCache.Delete(free.cacheKey())
	})
	v, _ := datasetCache.LoadOrStore(held.cacheKey(), &datasetEntry{})
	e := v.(*datasetEntry)
	started, release := make(chan struct{}), make(chan struct{})
	go e.once.Do(func() {
		close(started)
		<-release
		e.g, e.err = held.Generate()
	})
	<-started
	heldDone := make(chan *Graph)
	go func() {
		g, _ := held.Load()
		heldDone <- g
	}()
	if _, err := free.Load(); err != nil {
		t.Fatalf("loading %s while %s is in flight: %v", free.Name, held.Name, err)
	}
	close(release)
	if g := <-heldDone; g == nil || g != e.g {
		t.Fatal("waiting caller did not get the in-flight load's instance")
	}
}

// TestDatasetLoadRetriesAfterFailure shows a failed load is not kept:
// once the bad container is gone the same instance loads.
func TestDatasetLoadRetriesAfterFailure(t *testing.T) {
	d := prepTestDataset("ZF", 0x5656)
	g, err := d.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(d.PreparedPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(f, g, V2Options{Seed: 0xBAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resetPrepared(t, dir, d)
	if _, err := d.Load(); err == nil {
		t.Fatal("wrong-seed container loaded")
	}
	if err := os.Remove(d.PreparedPath(dir)); err != nil {
		t.Fatal(err)
	}
	a, err := d.Load()
	if err != nil {
		t.Fatalf("load after the failure was cleared: %v", err)
	}
	if b, _ := d.Load(); b != a {
		t.Fatal("successful load not memoized")
	}
}
