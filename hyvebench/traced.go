package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cluster/jobs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// The traced runs execute each workload's points in this process,
// timing the calls into every layer from the benchmark's own code.
// Before the traced pass, the reference is computed from generated
// graphs and one untraced round of the real programs runs, checked
// against it, as the tracing-overhead baseline. The reference loads
// nothing through Dataset.Load, so the traced pass still starts with no
// dataset loaded, and the baseline's programs have exited before the
// traced pass builds up its memory. The traced documents are checked
// against the same reference.

// baseline is the untraced side of a traced run: the reference and one
// checked round of the real programs.
type baseline struct {
	ref *reference
	r   round
}

// sweepBaseline computes the reference for a sweep and runs one round
// of the programs start launches.
func sweepBaseline(o *options, pts []point,
	start func(ctx context.Context, out *timedBuffer) ([]*proc, error)) (*baseline, error) {
	ref, err := computeReference(pts, o.nproc)
	if err != nil {
		return nil, err
	}
	b := &baseline{ref: ref}
	return b, sweepProcs(o.ctx, &b.r, pts, ref, start)
}

// traceSweepCold traces the sweep-cold points: generation of every
// dataset, then every point through the layer probes.
func traceSweepCold(o *options) (*outcome, error) {
	in := sweepFor(o.seed, 0)
	pts := in.Points()
	args := append([]string{"-result", "-parallel", fmt.Sprint(o.nproc)}, in.Flags()...)
	base, err := sweepBaseline(o, pts, func(ctx context.Context, out *timedBuffer) ([]*proc, error) {
		p, err := startProc(ctx, o.prog("hyve-sim"), args, out)
		return []*proc{p}, err
	})
	if err != nil {
		return nil, err
	}
	t, l := newTracer(), newLayers()
	rep := &layerReport{l: l, t: t}

	t0 := time.Now()
	if err := probeGenerate(t, l, in.Datasets); err != nil {
		return nil, err
	}
	rep.phases = append(rep.phases, phase{time.Since(t0), 1, true})
	docs, ph, err := probeAll(o, t, l, pts, true)
	if err != nil {
		return nil, err
	}
	rep.phases = append(rep.phases, ph)
	return finishTrace(o, rep, pts, docs, base)
}

// traceClusterPrepared traces the cluster-prepared points: container
// loads, then an in-process coordinator with two workers on loopback
// TCP timing every Job.Execute, then every point through the layer
// probes on the container-loaded graphs.
func traceClusterPrepared(o *options) (*outcome, error) {
	in := sweepFor(o.seed, 0)
	pts := in.Points()
	dir := filepath.Join(o.work, "prep")
	if err := compileContainers(o, dir); err != nil {
		return nil, err
	}
	base, err := sweepBaseline(o, pts, func(ctx context.Context, out *timedBuffer) ([]*proc, error) {
		return startCluster(ctx, o, in, dir, out)
	})
	if err != nil {
		return nil, err
	}
	t, l := newTracer(), newLayers()
	rep := &layerReport{l: l, t: t}

	t0 := time.Now()
	for i, name := range in.Datasets {
		d, err := graph.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		s := t.begin("graph.load_v2", 0, -1-i)
		c, err := graph.OpenV2(d.PreparedPath(dir))
		l.loadV2 = append(l.loadV2, ms(t.end(s)))
		if err != nil {
			return nil, err
		}
		c.Close()
	}
	rep.phases = append(rep.phases, phase{time.Since(t0), 1, true})

	clusterDocs, err := traceCluster(o.ctx, t, rep, in, dir)
	if err != nil {
		return nil, err
	}
	docs, ph, err := probeAll(o, t, l, pts, false)
	if err != nil {
		return nil, err
	}
	rep.phases = append(rep.phases, ph)

	oc, err := finishTrace(o, rep, pts, docs, base)
	if err != nil {
		return nil, err
	}
	f, _ := checkStream(bytes.Join(clusterDocs, nil), pts, base.ref)
	oc.attempted += len(pts)
	oc.failed += f
	return oc, nil
}

// timedJob wraps a cluster.Job so every Execute is a span.
type timedJob struct {
	cluster.Job
	t    *tracer
	busy *atomic.Int64 // Σ execute ns
}

func (j timedJob) Execute(ctx context.Context, i int) ([]byte, error) {
	s := j.t.begin("cluster.execute", 0, i)
	b, err := j.Job.Execute(ctx, i)
	j.busy.Add(int64(j.t.end(s)))
	return b, err
}

// traceCluster runs the sweep through an in-process coordinator and
// two loopback RunWorker goroutines and returns the merged documents.
func traceCluster(ctx context.Context, t *tracer, rep *layerReport, in sweepInput, dir string) ([][]byte, error) {
	spec, err := jobs.NewSimSpec(in.Datasets, in.Algos, in.Configs, in.SRAMMB)
	if err != nil {
		return nil, err
	}
	job, err := jobs.Decode(spec, jobs.ExecOptions{PrepDir: dir})
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Spec: spec, Points: job.Points(), Validate: job.Validate,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go coord.Serve(ln) // returns once the sweep is done or ln closes

	sched := cache.New(cache.Config{})
	factory := jobs.Factory(jobs.ExecOptions{Cache: sched, PrepDir: dir})
	var busy atomic.Int64
	cfg := cluster.WorkerConfig{Parallel: 1, Factory: func(spec []byte) (cluster.Job, error) {
		j, err := factory(spec)
		if err != nil {
			return nil, err
		}
		return timedJob{j, t, &busy}, nil
	}}
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	t0 := time.Now()
	// Worker errors need no separate check: a failed worker's leases are
	// reclaimed by the other, Run fails at the deadline if both fail,
	// and the merged bytes are checked against the reference.
	var wg sync.WaitGroup
	for w := 0; w < clusterWorkers; w++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(w int, conn net.Conn) {
			defer wg.Done()
			c := cfg
			c.Name = fmt.Sprintf("w%d", w)
			_, _ = cluster.RunWorker(ctx, conn, c)
		}(w, conn)
	}
	runErr := coord.Run(ctx)
	wall := time.Since(t0)
	cancel() // release a worker still waiting for work
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	rep.phases = append(rep.phases, phase{wall, clusterWorkers, true})
	st := coord.Stats()
	rep.clusterStats = [3]float64{float64(st.Granted), float64(st.Reclaimed), float64(st.Duplicate)}
	rep.clusterBusy = float64(busy.Load()) / float64(wall*clusterWorkers)
	rep.clusterOverMS = ms(wall) - ms(time.Duration(busy.Load()))/clusterWorkers
	rep.cacheStats = sched.Stats()
	return coord.Results(), nil
}

// probeAll runs every point through probePoint on nproc goroutines.
func probeAll(o *options, t *tracer, l *layers, pts []point, mirror bool) ([][]byte, phase, error) {
	docs := make([][]byte, len(pts))
	t0 := time.Now()
	err := parallel.ForEach(o.nproc, len(pts), func(i int) (err error) {
		docs[i], err = probePoint(t, l, i, pts[i])
		return err
	})
	return docs, phase{time.Since(t0), o.nproc, mirror}, err
}

// finishTrace checks the traced documents against the baseline's
// reference, folds in the baseline round (checked like any other; its
// wall is the tracing-overhead baseline), fills the per-layer metrics
// and writes the spans.
func finishTrace(o *options, rep *layerReport, pts []point, docs [][]byte, b *baseline) (*outcome, error) {
	oc := &outcome{notes: map[string]any{}}
	oc.attempted = len(docs) + b.r.points
	oc.failed = b.r.failed
	for i, d := range docs {
		if !bytes.Equal(d, b.ref.doc(pts[i])) {
			oc.failed++
		}
	}
	rep.distinctPairs = len(rep.l.pairs)
	var err error
	if rep.allocMB, err = workloadAllocMB(rep.l.pairs); err != nil {
		return nil, err
	}
	rep.untracedWall = b.r.wall
	rep.cpuUtil = b.r.cpu.Seconds() / (b.r.wall.Seconds() * float64(o.nproc))
	rep.metrics(oc)
	path := filepath.Join(filepath.Dir(o.bin), "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := rep.t.write(path); err != nil {
		return nil, err
	}
	oc.notes["trace_file"] = path
	return oc, nil
}

// traceServeZipf traces the serve-zipf sequence through an in-process
// serve.Server handler with nproc closed-loop clients. The loop times
// only the handler, so its wall compares with the untraced round's.
// Afterwards one serial pass probes each key once (probeKey).
func traceServeZipf(o *options) (*outcome, error) {
	in := serveFor(o.seed, serveRequests)
	ref, err := computeReference(in.distinct(), o.nproc)
	if err != nil {
		return nil, err
	}
	sr, err := serveOnce(o, in, ref)
	if err != nil {
		return nil, err
	}
	base := &baseline{ref: ref, r: sr.round}
	t, l := newTracer(), newLayers()
	rep := &layerReport{l: l, t: t}

	t0 := time.Now()
	if err := probeGenerate(t, l, allDatasets); err != nil {
		return nil, err
	}
	rep.phases = append(rep.phases, phase{time.Since(t0), 1, false})

	// The server is configured as hyve-serve configures it for the
	// untraced round: its observability stack and its flag defaults,
	// with the same admission settings.
	obs.SetDefault(obs.Multi(obs.Expvar(), obs.Metrics()))
	obs.EnableTracing(0)
	cache.RegisterMetrics(obs.Default())
	serve.RegisterMetrics(obs.Default())
	sched := cache.New(cache.Config{})
	h := serve.New(serve.Config{
		Sched: sched, Workers: o.nproc,
		Rate: serveRate, Burst: serveBurst, MaxInflight: serveMaxInflight,
		BreakerFailures: 5, BreakerCooldown: 30 * time.Second,
		Log: obs.NewLogger(os.Stderr, obs.LevelError),
	}).Handler()
	n := len(in.Requests)
	bodies, codes, handler := make([][]byte, n), make([]int, n), make([]time.Duration, n)
	var next atomic.Int64
	t1 := time.Now()
	_ = parallel.ForEach(o.nproc, o.nproc, func(int) error {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body, _ := json.Marshal(in.Keys[in.Requests[i]]) // strings and ints always encode
			rec := httptest.NewRecorder()
			s := t.begin("serve.handler", 0, i)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/point", bytes.NewReader(body)))
			handler[i] = t.end(s)
			bodies[i], codes[i] = rec.Body.Bytes(), rec.Code
		}
		return nil
	})
	rep.phases = append(rep.phases, phase{time.Since(t1), o.nproc, true})
	rep.cacheStats = sched.Stats()

	first := in.firstTouches()
	pairs := map[[2]string]pairProbe{}
	t2 := time.Now()
	for i, k := range in.Requests {
		if first[i] && codes[i] == http.StatusOK {
			if err := probeKey(t, l, i, in.Keys[k], bodies[i], pairs); err != nil {
				return nil, err
			}
		}
	}
	rep.phases = append(rep.phases, phase{time.Since(t2), 1, false})

	pts := make([]point, n)
	l.pairs = map[[2]string]int{} // the server assembles a workload per request
	for i, k := range in.Requests {
		p := in.Keys[k]
		pts[i] = p
		pair := [2]string{p.Dataset, p.Algo}
		l.pairs[pair]++
		switch {
		case codes[i] != http.StatusOK:
			rep.serveRejected++
		case first[i]:
			l.coldServe = append(l.coldServe, ms(handler[i]))
		default:
			l.warmServe = append(l.warmServe, us(handler[i]))
			l.serveSelf = append(l.serveSelf, us(handler[i]-pairs[pair].cost))
		}
	}
	return finishTrace(o, rep, pts, bodies, base)
}

// pairProbe is what probeKey measured for a (dataset, algorithm) pair.
type pairProbe struct {
	wl   core.Workload
	cost time.Duration // workload assembly + digest + encoding
}

// probeKey probes the layers the server crossed for one key: the
// partition build and functional run its first touch paid and, for
// the first key of each (dataset, algorithm) pair, what every request
// of the pair pays outside the handler's own code: workload assembly,
// digest and encoding on a fresh workload. The pair's workload serves
// all its keys (they share one graph), so the digested clones the
// program retains stay one per pair. All probe time repeats work the
// handler did inside its spans.
func probeKey(t *tracer, l *layers, id int, p point, body []byte, pairs map[[2]string]pairProbe) error {
	res, err := cache.DecodeResult(body)
	if err != nil {
		return nil // a wrong document; the reference check counts it
	}
	cfg, err := coreConfig(p)
	if err != nil {
		return err
	}
	root := t.begin("point", 0, id)
	defer t.end(root)
	pair := [2]string{p.Dataset, p.Algo}
	pp, probed := pairs[pair]
	if !probed {
		var wdur time.Duration
		if _, pp.wl, wdur, err = probeWorkload(t, l, root, p); err != nil {
			return err
		}
		_, cdur, err := probeCache(t, l, root, cfg, pp.wl, res)
		if err != nil {
			return err
		}
		pp.cost = wdur + cdur
		pairs[pair] = pp
	}
	build, run, err := probeColdLayers(t, l, root, cfg, pp.wl)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.repeat += ms(build + run)
	if !probed {
		l.repeat += ms(pp.cost)
	}
	l.mu.Unlock()
	return nil
}
