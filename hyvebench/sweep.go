package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
)

// roundTimeout bounds one measured round; a round that needs longer is
// a failed run.
const roundTimeout = 120 * time.Second

// startupRepeats is how often sweep-cold times program start-up per
// round.
const startupRepeats = 5

// round is what one set of fresh program processes measured.
type round struct {
	setup, wall, cpu time.Duration
	rssMB            float64 // Σ of every program process's peak resident set
	points           int     // points (or requests) attempted
	failed           int
	edges            int64     // simulated edges of the correct documents
	lat              []float64 // ms from request to document, per point
}

// runSweepCold runs fresh `hyve-sim -result` sweeps of the seeded
// 125-point cross product, in a fresh seeded order each round, until
// the window closes.
func runSweepCold(o *options) (*outcome, error) {
	in := sweepFor(o.seed, 0)
	ref, err := computeReference(in.Points(), o.nproc)
	if err != nil {
		return nil, err
	}
	rounds, err := repeatRounds(o.window(), func(k int) (round, error) {
		var r round
		var err error
		if r.setup, err = startupTime(o); err != nil {
			return r, err
		}
		in := sweepFor(o.seed, k)
		args := append([]string{"-result", "-parallel", fmt.Sprint(o.nproc)}, in.Flags()...)
		return r, sweepProcs(o.ctx, &r, in.Points(), ref, func(ctx context.Context, out *timedBuffer) ([]*proc, error) {
			p, err := startProc(ctx, o.prog("hyve-sim"), args, out)
			return []*proc{p}, err
		})
	})
	if err != nil {
		return nil, err
	}
	return sweepOutcome(o, rounds, ref), nil
}

// sweepOutcome adds the sweep notes to the end-to-end metrics: the
// SRAM size and the SHA-256 of the expected output of the first
// round's order, which sweep-cold and cluster-prepared share per seed.
func sweepOutcome(o *options, rounds []round, ref *reference) *outcome {
	in := sweepFor(o.seed, 0)
	oc := e2eOutcome(o, rounds)
	oc.notes["sram_mb"] = in.SRAMMB
	oc.notes["output_sha256"] = streamDigest(in.Points(), ref)
	return oc
}

// startupTime is the median time from exec to exit of `hyve-sim -h`:
// binary load, runtime start and package initialisation, which is all
// the set-up a cold sweep has before its first point.
func startupTime(o *options) (time.Duration, error) {
	var xs []float64
	for i := 0; i < startupRepeats; i++ {
		p, err := startProc(o.ctx, o.prog("hyve-sim"), []string{"-h"}, nil)
		if err != nil {
			return 0, err
		}
		if err := p.wait(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(p.wall))
	}
	return time.Duration(median(xs)), nil
}

// runClusterPrepared compiles hyve-prep containers, then runs a
// hyve-sweepd coordinator with two single-threaded hyve-worker
// processes over loopback TCP, once per round.
func runClusterPrepared(o *options) (*outcome, error) {
	ref, err := computeReference(sweepFor(o.seed, 0).Points(), o.nproc)
	if err != nil {
		return nil, err
	}
	rounds, err := repeatRounds(o.window(), func(k int) (round, error) {
		var r round
		dir := filepath.Join(o.work, fmt.Sprintf("prep%d", k))
		t0 := time.Now()
		if err := compileContainers(o, dir); err != nil {
			return r, err
		}
		r.setup = time.Since(t0)
		defer os.RemoveAll(dir)
		in := sweepFor(o.seed, k)
		return r, sweepProcs(o.ctx, &r, in.Points(), ref, func(ctx context.Context, out *timedBuffer) ([]*proc, error) {
			return startCluster(ctx, o, in, dir, out)
		})
	})
	if err != nil {
		return nil, err
	}
	return sweepOutcome(o, rounds, ref), nil
}

// clusterWorkers is the number of hyve-worker processes.
const clusterWorkers = 2

// startCluster starts the coordinator (stdout = merged artifact) and
// its workers; the coordinator is the first process returned.
func startCluster(ctx context.Context, o *options, in sweepInput, prepDir string, out *timedBuffer) ([]*proc, error) {
	args := append([]string{"-local=false", "-listen", "127.0.0.1:0", "-prep-dir", prepDir}, in.Flags()...)
	coord, err := startProc(ctx, o.prog("hyve-sweepd"), args, out)
	if err != nil {
		return nil, err
	}
	addr, err := listenAddr(coord)
	if err != nil {
		coord.stop()
		return nil, err
	}
	procs := []*proc{coord}
	for w := 0; w < clusterWorkers; w++ {
		p, err := startProc(ctx, o.prog("hyve-worker"),
			[]string{"-connect", addr, "-parallel", "1", "-prep-dir", prepDir, "-name", fmt.Sprintf("w%d", w)}, nil)
		if err != nil {
			for _, q := range procs {
				q.stop()
			}
			return nil, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// listenAddr waits for the coordinator to announce its listener.
func listenAddr(coord *proc) (string, error) {
	const marker = "listening on "
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s := string(coord.stderr.bytes())
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				addr := strings.TrimSpace(rest[:j])
				if _, _, err := net.SplitHostPort(addr); err != nil {
					return "", fmt.Errorf("coordinator announced %q: %w", addr, err)
				}
				return addr, nil
			}
		}
		select {
		case <-coord.done:
			return "", coord.wait()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("coordinator did not announce a listener")
}

// compileContainers writes one `hyve-prep -grid auto` container per
// dataset into dir, nproc at a time.
func compileContainers(o *options, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sem := make(chan struct{}, o.nproc)
	errs := make([]error, len(graph.Datasets))
	var wg sync.WaitGroup
	for i, d := range graph.Datasets {
		wg.Add(1)
		go func(i int, d graph.Dataset) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p, err := startProc(o.ctx, o.prog("hyve-prep"),
				[]string{"-dataset", d.Name, "-out", d.PreparedPath(dir), "-grid", "auto", "-stats=false"}, nil)
			if err == nil {
				err = p.wait()
			}
			errs[i] = err
		}(i, d)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepProcs runs one round: start the processes, wait for all of them,
// and check the first process's output against the reference.
func sweepProcs(ctx context.Context, r *round, pts []point, ref *reference,
	start func(ctx context.Context, out *timedBuffer) ([]*proc, error)) error {
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	var out timedBuffer
	t0 := time.Now()
	procs, err := start(ctx, &out)
	if err != nil {
		return err
	}
	exitFailed := false
	for _, p := range procs {
		if err := p.wait(); err != nil {
			fmt.Fprintln(os.Stderr, "hyvebench:", err)
			exitFailed = true
		}
		r.cpu += p.cpu()
		r.rssMB += p.maxRSSMB()
	}
	r.wall = time.Since(t0)
	r.points = len(pts)
	r.failed, r.edges = checkStream(out.bytes(), pts, ref)
	if exitFailed {
		r.failed = len(pts) // a failed process delivers nothing usable
		r.edges = 0
	}
	for _, d := range out.deliveries() {
		r.lat = append(r.lat, ms(d))
	}
	return nil
}

// repeatRounds runs rounds 0, 1, ... while another round of average
// length still fits in the window; the first round always runs.
func repeatRounds[R any](window time.Duration, round func(k int) (R, error)) ([]R, error) {
	var out []R
	start := time.Now()
	for len(out) == 0 || time.Since(start)*time.Duration(len(out)+1)/time.Duration(len(out)) <= window {
		r, err := round(len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// e2eOutcome turns rounds into the end-to-end metrics every workload
// reports, in order, plus the report-only latency and CPU use. Point
// latency is report-only: both sweep programs emit every document at
// exit, so on sweeps it is the round's wall time again.
func e2eOutcome(o *options, rounds []round) *outcome {
	oc := &outcome{notes: map[string]any{"rounds": len(rounds)}}
	var setup, rate, cpuPer, medges, rss, util, lat []float64
	for _, r := range rounds {
		oc.attempted += r.points
		oc.failed += r.failed
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, float64(r.points)/r.wall.Seconds())
		cpuPer = append(cpuPer, r.cpu.Seconds()/float64(r.points))
		medges = append(medges, float64(r.edges)/1e6/r.cpu.Seconds())
		rss = append(rss, r.rssMB)
		util = append(util, r.cpu.Seconds()/(r.wall.Seconds()*float64(o.nproc)))
		lat = append(lat, r.lat...)
	}
	oc.add("setup_s", median(setup), "s")
	oc.add("points_per_s", median(rate), "1/s")
	oc.add("cpu_s_per_point", median(cpuPer), "s")
	oc.add("sim_medges_per_cpu_s", median(medges), "Medges/s")
	oc.add("rss_peak_mb", median(rss), "MB")
	reportPercentile(oc, "point_ms_p50", lat, 0.5)
	reportPercentile(oc, "point_ms_p99", lat, 0.99)
	oc.note("parallel.cpu_util", median(util), "ratio")
	return oc
}

// reportPercentile adds a report-only percentile when the rule allows
// it, always with its sample count.
func reportPercentile(oc *outcome, name string, xs []float64, q float64) {
	if v, ok := percentile(xs, q); ok {
		oc.note(name, v, "ms")
	} else {
		oc.notes[name] = fmt.Sprintf("not reported: %d samples leave fewer than %d beyond", len(xs), minBeyond)
	}
	oc.notes[name+"_samples"] = len(xs)
}

// streamDigest is the SHA-256 of the expected merged output: the same
// value on sweep-cold and cluster-prepared for the same seed, because
// both programs must emit exactly this stream.
func streamDigest(pts []point, ref *reference) string {
	h := sha256.New()
	for _, p := range pts {
		h.Write(ref.doc(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}
