package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one point (or request) share Point; Parent is the id
// of the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Point  int    `json:"point"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's prefix: "partition.build" → "partition".
// Root spans ("point", "request") belong to the benchmark itself.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return ""
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span.
type open struct {
	id, parent, point int
	name              string
	start             time.Time
}

func (t *tracer) begin(name string, parent, point int) open {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{id, parent, point, name, time.Now()}
}

func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{o.id, o.parent, o.point, o.name,
		int64(o.start.Sub(t.t0)), int64(now.Sub(t.t0))})
	t.mu.Unlock()
	return now.Sub(o.start)
}

// selfByLayer sums each layer's self time: a span's duration minus the
// part of its interval its child spans cover.
func (t *tracer) selfByLayer() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// write saves the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layers accumulates the per-layer counts the probes measure.
type layers struct {
	mu        sync.Mutex
	generate  []float64         // ms per Dataset.Generate
	loadV2    []float64         // ms per graph.OpenV2
	workload  []float64         // µs per core.WorkloadFor
	pairs     map[[2]string]int // core.WorkloadFor calls per (dataset, algorithm)
	build     []float64         // ms per partition.BuildParallel
	algoRun   []float64         // ms per algo.Run
	edges     int64
	machine   []float64 // ms, core.NewMachine minus its point's build
	costSelf  []float64 // ms, Machine.Simulate minus its point's algo.Run
	repeat    float64   // ms of work a probe repeated inside another span
	digest    []float64 // µs per cache.PointDigest
	encode    []float64 // µs per cache.EncodeResult
	warmServe []float64 // µs per handler call on a repeat key
	coldServe []float64 // ms per handler call on a first touch
	serveSelf []float64 // µs, warm handler minus its key's probes
}

func newLayers() *layers { return &layers{pairs: map[[2]string]int{}} }

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent open, f func() error) (time.Duration, error) {
	s := t.begin(name, parent.id, parent.point)
	err := f()
	return t.end(s), err
}

// probeWorkload times core.WorkloadFor for a point.
func probeWorkload(t *tracer, l *layers, root open, p point) (core.Config, core.Workload, time.Duration, error) {
	var wl core.Workload
	d, prog, err := resolve(p)
	if err != nil {
		return core.Config{}, wl, 0, err
	}
	cfg, err := coreConfig(p)
	if err != nil {
		return cfg, wl, 0, err
	}
	dur, err := t.timed("core.workload", root, func() (err error) {
		wl, err = core.WorkloadFor(d, prog)
		return err
	})
	l.mu.Lock()
	l.workload = append(l.workload, us(dur))
	l.pairs[[2]string{p.Dataset, p.Algo}]++
	l.mu.Unlock()
	return cfg, wl, dur, err
}

// probeColdLayers times the partition build at the simulator's P and
// the functional run of a point.
func probeColdLayers(t *tracer, l *layers, root open, cfg core.Config, wl core.Workload) (build, run time.Duration, err error) {
	build, err = t.timed("partition.build", root, func() error {
		p, err := core.ChoosePFor(cfg, wl)
		if err != nil {
			return err
		}
		asg, err := partition.NewHashed(wl.Graph.NumVertices, p)
		if err != nil {
			return err
		}
		_, err = partition.BuildParallel(wl.Graph, asg, cfg.Parallelism)
		return err
	})
	if err != nil {
		return
	}
	var fr *algo.Result
	run, err = t.timed("algo.run", root, func() (err error) {
		fr, err = algo.Run(wl.Program, wl.Graph)
		return err
	})
	if err != nil {
		return
	}
	l.mu.Lock()
	l.build = append(l.build, ms(build))
	l.algoRun = append(l.algoRun, ms(run))
	l.edges += fr.EdgesProcessed
	l.mu.Unlock()
	return build, run, nil
}

// probePoint computes one point through timed calls into every layer a
// simulation crosses and returns its canonical document. NewMachine
// rebuilds the partition internally and Simulate repeats the functional
// run, so their self times subtract the probed build and run of the
// same point; the subtracted time is reported as repeated work.
func probePoint(t *tracer, l *layers, id int, p point) ([]byte, error) {
	root := t.begin("point", 0, id)
	defer t.end(root)
	cfg, wl, _, err := probeWorkload(t, l, root, p)
	if err != nil {
		return nil, err
	}
	build, run, err := probeColdLayers(t, l, root, cfg, wl)
	if err != nil {
		return nil, err
	}
	var m *core.Machine
	mdur, err := t.timed("core.machine", root, func() (err error) {
		m, err = core.NewMachine(cfg, wl)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *core.Result
	sdur, err := t.timed("core.simulate", root, func() (err error) {
		res, err = m.Simulate()
		return err
	})
	if err != nil {
		return nil, err
	}
	doc, _, err := probeCache(t, l, root, cfg, wl, res)
	if err != nil {
		return nil, err
	}
	mSelf, sSelf := max(mdur-build, 0), max(sdur-run, 0)
	l.mu.Lock()
	l.machine = append(l.machine, ms(mSelf))
	l.costSelf = append(l.costSelf, ms(sSelf))
	l.repeat += ms(mdur - mSelf + sdur - sSelf)
	l.mu.Unlock()
	return doc, nil
}

// probeCache times the point digest and the result encoding and
// returns the document and the two durations' sum.
func probeCache(t *tracer, l *layers, root open, cfg core.Config, wl core.Workload, res *core.Result) ([]byte, time.Duration, error) {
	ddur, err := t.timed("cache.digest", root, func() error {
		_, err := cache.PointDigest(cfg, wl)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var doc []byte
	edur, err := t.timed("cache.encode", root, func() (err error) {
		doc, err = cache.EncodeResult(res)
		return err
	})
	l.mu.Lock()
	l.digest = append(l.digest, us(ddur))
	l.encode = append(l.encode, us(edur))
	l.mu.Unlock()
	return doc, ddur + edur, err
}

// probeGenerate times the first load of every dataset, which generates
// it (the process has loaded nothing yet).
func probeGenerate(t *tracer, l *layers, names []string) error {
	for i, n := range names {
		d, err := graph.DatasetByName(n)
		if err != nil {
			return err
		}
		s := t.begin("graph.generate", 0, -1-i)
		_, err = d.Load()
		dur := t.end(s)
		if err != nil {
			return err
		}
		l.generate = append(l.generate, ms(dur))
	}
	return nil
}

// workloadAllocMB measures, serially and outside any timed phase, the
// bytes core.WorkloadFor allocates for each (dataset, algorithm) pair
// and sums them over the calls the traced pass made.
func workloadAllocMB(pairs map[[2]string]int) (float64, error) {
	var total float64
	var before, after runtime.MemStats
	for pair, calls := range pairs {
		d, prog, err := resolve(point{Dataset: pair[0], Algo: pair[1]})
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&before)
		if _, err := core.WorkloadFor(d, prog); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		total += float64(after.TotalAlloc-before.TotalAlloc) * float64(calls)
	}
	return total / (1 << 20), nil
}

// phase is one stretch of the traced run and how many goroutines it
// kept busy; capacity is wall × workers. A mirror phase does what the
// untraced round does; the others only probe, and the tracing overhead
// compares the mirror phases' wall with the untraced round's.
type phase struct {
	wall    time.Duration
	workers int
	mirror  bool
}

// layerReport renders the per-layer metrics. Every name is always
// present; a layer the workload does not run reports 0.
type layerReport struct {
	l             *layers
	t             *tracer
	phases        []phase
	untracedWall  time.Duration
	cpuUtil       float64
	allocMB       float64
	cacheStats    cache.Stats
	serveRejected int
	clusterBusy   float64
	clusterOverMS float64
	clusterStats  [3]float64 // granted, reclaimed, duplicate
	distinctPairs int
}

func (r *layerReport) metrics(oc *outcome) {
	l := r.l
	count := func(xs []float64) float64 { return float64(len(xs)) }
	p50 := func(xs []float64) float64 { return median(xs) }
	oc.add("graph.generate_ms", sum(l.generate), "ms")
	oc.add("graph.generate_calls", count(l.generate), "count")
	oc.add("graph.load_v2_ms", sum(l.loadV2), "ms")
	oc.add("core.workload_us_p50", p50(l.workload), "us")
	oc.add("core.workload_us_max", maxOf(l.workload), "us")
	oc.add("core.workload_alloc_mb", r.allocMB, "MB")
	oc.add("partition.build_ms", sum(l.build), "ms")
	oc.add("partition.builds", count(l.build), "count")
	oc.add("algo.run_ms", sum(l.algoRun), "ms")
	oc.add("algo.runs", count(l.algoRun), "count")
	oc.add("algo.edges", float64(l.edges), "count")
	useful := 0.0
	if len(l.algoRun) > 0 {
		useful = float64(r.distinctPairs) / count(l.algoRun)
	}
	oc.add("algo.useful_ratio", useful, "ratio")
	oc.add("core.machine_ms", sum(l.machine), "ms")
	oc.add("core.cost_self_ms", sum(l.costSelf), "ms")
	oc.add("cache.digest_us", p50(l.digest), "us")
	oc.add("cache.encode_us", p50(l.encode), "us")
	st := r.cacheStats
	lookups := st.MemHits + st.DiskHits + st.Executed + st.Coalesced
	hit := 0.0
	if lookups > 0 {
		hit = float64(st.MemHits+st.DiskHits) / float64(lookups)
	}
	oc.add("cache.hit_ratio", hit, "ratio")
	oc.add("cache.executed", float64(st.Executed), "count")
	oc.add("cache.coalesced", float64(st.Coalesced), "count")
	oc.add("serve.warm_us_p50", p50(l.warmServe), "us")
	oc.add("serve.cold_ms_p50", p50(l.coldServe), "ms")
	oc.add("serve.self_us", p50(l.serveSelf), "us")
	oc.add("serve.rejected", float64(r.serveRejected), "count")
	oc.add("parallel.cpu_util", r.cpuUtil, "ratio")
	oc.add("cluster.execute_busy_ratio", r.clusterBusy, "ratio")
	oc.add("cluster.overhead_ms", r.clusterOverMS, "ms")
	oc.add("cluster.leases_granted", r.clusterStats[0], "count")
	oc.add("cluster.leases_reclaimed", r.clusterStats[1], "count")
	oc.add("cluster.results_duplicate", r.clusterStats[2], "count")

	// Attribution: the traced capacity (Σ phase wall × workers) splits
	// into layer self time, work the probes repeat, and the remainder
	// no layer span covers (benchmark code, scheduling, idle workers).
	var wall, capacity time.Duration
	for _, p := range r.phases {
		if p.mirror {
			wall += p.wall
		}
		capacity += p.wall * time.Duration(p.workers)
	}
	var self time.Duration
	for layer, d := range r.t.selfByLayer() {
		if layer != "" {
			self += d
		}
	}
	layerSelf := ms(self) - l.repeat
	oc.add("trace.wall_ms", ms(wall), "ms")
	oc.add("trace.untraced_wall_ms", ms(r.untracedWall), "ms")
	oc.add("trace.overhead_ratio", ms(wall)/ms(r.untracedWall), "ratio")
	oc.add("trace.capacity_ms", ms(capacity), "ms")
	oc.add("trace.layer_self_ms", layerSelf, "ms")
	oc.add("trace.repeat_ms", l.repeat, "ms")
	oc.add("trace.unattributed_ms", ms(capacity)-layerSelf-l.repeat, "ms")
}
