package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// warmSRAMMB is the SRAM size of the set-up requests that load each
// dataset. It is outside sramChoicesMB, so warming never pre-caches a
// key of the measured sequence.
const warmSRAMMB = 3

// Admission far above the offered load: every 429 is a failure.
const (
	serveRate        = 1e9 // points per second
	serveBurst       = 1_000_000_000
	serveMaxInflight = 1024
)

// serveRound is what one fresh hyve-serve process measured. Its wall
// and CPU cover the closed-loop window only; lat is in sequence order.
type serveRound struct {
	round
	rssSetupMB float64
	rssEndMB   float64
	rejected   int // 429 and 503 answers
}

// runServeZipf serves the seeded request sequence with a closed loop of
// nproc clients against a fresh hyve-serve per round.
func runServeZipf(o *options) (*outcome, error) {
	in := serveFor(o.seed, serveRequests)
	ref, err := computeReference(in.distinct(), o.nproc)
	if err != nil {
		return nil, err
	}
	rounds, err := repeatRounds(o.window(), func(int) (serveRound, error) {
		return serveOnce(o, in, ref)
	})
	if err != nil {
		return nil, err
	}
	return serveOutcome(o, in, rounds), nil
}

// serveOnce starts hyve-serve, warms every dataset, runs the closed
// loop and stops the server.
func serveOnce(o *options, in serveInput, ref *reference) (serveRound, error) {
	var r serveRound
	port, err := freePort()
	if err != nil {
		return r, err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	ctx, cancel := context.WithTimeout(o.ctx, roundTimeout)
	defer cancel()
	t0 := time.Now()
	srv, err := startProc(ctx, o.prog("hyve-serve"), []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-level", "error",
		"-parallel", fmt.Sprint(o.nproc),
		"-rate", fmt.Sprint(serveRate), "-burst", fmt.Sprint(serveBurst),
		"-max-inflight", fmt.Sprint(serveMaxInflight),
	}, nil)
	if err != nil {
		return r, err
	}
	defer srv.stop()
	if err := waitHealthy(base, srv); err != nil {
		return r, err
	}
	if err := warmDatasets(base); err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	pid := srv.cmd.Process.Pid
	r.rssSetupMB = procRSSMB(pid)
	cpu0, err := procCPU(pid)
	if err != nil {
		return r, err
	}

	w0 := time.Now()
	res := closedLoop(base, in, o.nproc)
	r.wall = time.Since(w0)
	cpu1, err := procCPU(pid)
	if err != nil {
		return r, err
	}
	r.cpu = cpu1 - cpu0
	r.rssEndMB = procRSSMB(pid)
	srv.stop()
	r.rssMB = srv.maxRSSMB()

	r.score(in, ref, res)
	return r, nil
}

// score checks every reply against the reference: a refusal (429 or
// 503), any other non-200 status and any wrong byte each count as a
// failed request.
func (r *serveRound) score(in serveInput, ref *reference, res []reply) {
	r.points = len(res)
	r.lat = make([]float64, len(res))
	for i, x := range res {
		r.lat[i] = ms(x.lat)
		p := in.Keys[in.Requests[i]]
		switch {
		case x.status == http.StatusTooManyRequests || x.status == http.StatusServiceUnavailable:
			r.rejected++
			r.failed++
		case x.status != http.StatusOK || !bytes.Equal(x.body, ref.doc(p)):
			r.failed++
		default:
			r.edges += ref.edges[p.identity()]
		}
	}
}

// reply is one answered request.
type reply struct {
	status int
	body   []byte
	lat    time.Duration
}

// closedLoop issues the sequence from clients goroutines, each holding
// one keep-alive connection and sending its next request only after
// the previous reply has been read.
func closedLoop(base string, in serveInput, clients int) []reply {
	out := make([]reply, len(in.Requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr, Timeout: roundTimeout}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Requests) {
					return
				}
				out[i] = post(cl, base, in.Keys[in.Requests[i]])
			}
		}()
	}
	wg.Wait()
	return out
}

// post sends one /point request and reads the whole reply.
func post(cl *http.Client, base string, p point) reply {
	body, _ := json.Marshal(p) // a struct of strings and ints always encodes
	t0 := time.Now()
	resp, err := cl.Post(base+"/point", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{status: -1, lat: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: b, lat: time.Since(t0)}
	if err != nil {
		r.status = -1
	}
	return r
}

// waitHealthy polls /healthz until the server answers 200.
func waitHealthy(base string, srv *proc) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-srv.done:
			return fmt.Errorf("hyve-serve exited during start-up: %v", srv.wait())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("hyve-serve not healthy after 10s")
}

// warmDatasets loads every dataset in the server with one request each.
func warmDatasets(base string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(allDatasets))
	for i, d := range allDatasets {
		wg.Add(1)
		go func(i int, d string) {
			defer wg.Done()
			r := post(http.DefaultClient, base, point{d, "BFS", "hyve-opt", warmSRAMMB})
			if r.status != http.StatusOK {
				errs[i] = fmt.Errorf("warming %s: status %d: %s", d, r.status, tail(string(r.body), 200))
			}
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

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// serveOutcome adds the serve-only report figures to the end-to-end
// metrics: warm and cold latency, memory growth and refusals.
func serveOutcome(o *options, in serveInput, rounds []serveRound) *outcome {
	first := in.firstTouches()
	var base []round
	var warm, cold, rssSetup, rssEnd []float64
	rejected := 0
	for _, r := range rounds {
		base = append(base, r.round)
		rssSetup = append(rssSetup, r.rssSetupMB)
		rssEnd = append(rssEnd, r.rssEndMB)
		rejected += r.rejected
		for i, x := range r.lat {
			if first[i] {
				cold = append(cold, x)
			} else {
				warm = append(warm, x)
			}
		}
	}
	oc := e2eOutcome(o, base)
	oc.notes["keys"] = len(in.Keys)
	reportPercentile(oc, "point_warm_ms_p50", warm, 0.5)
	reportPercentile(oc, "point_warm_ms_p99", warm, 0.99)
	reportPercentile(oc, "point_cold_ms_p50", cold, 0.5)
	oc.note("rss_after_setup_mb", median(rssSetup), "MB")
	oc.note("rss_end_mb", median(rssEnd), "MB")
	oc.note("rejected", float64(rejected), "count")
	return oc
}
