package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster/jobs"
	"repro/internal/point"
	"repro/internal/serve"
)

// door runs a sweep through one front door and returns the canonical
// result documents it emits, concatenated in sweep order, or the error
// it refuses the sweep with.
type door func(t *testing.T, sw point.Sweep) ([]byte, error)

func simDoor(t *testing.T, sw point.Sweep) ([]byte, error) {
	var out bytes.Buffer
	if err := runSweep(&out, &bytes.Buffer{}, sw, false, modeResult, 2); err != nil {
		if out.Len() > 0 {
			t.Errorf("hyve-sim emitted %d bytes before refusing %+v", out.Len(), sw)
		}
		return nil, err
	}
	return out.Bytes(), nil
}

// fetch posts req to the service and returns the 200 body, or the error
// message of a refusal, which must be a 400.
func fetch(t *testing.T, url string, req any) ([]byte, error) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		return body, nil
	}
	var refusal struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &refusal); err != nil {
		t.Fatalf("status %d with an undecodable body %q: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("refused with status %d, want 400: %s", resp.StatusCode, refusal.Error)
	}
	return nil, errors.New(refusal.Error)
}

func pointDoor(url string) door {
	return func(t *testing.T, sw point.Sweep) ([]byte, error) {
		var out []byte
		for i := 0; i < sw.Len(); i++ {
			p := sw.At(i)
			body, err := fetch(t, url+"/point", serve.PointRequest{
				Dataset: p.Dataset, Algo: p.Algo, Config: p.Config, SRAMMB: p.SRAMMB,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, body...)
		}
		return out, nil
	}
}

func sweepDoor(url string) door {
	return func(t *testing.T, sw point.Sweep) ([]byte, error) {
		body, err := fetch(t, url+"/sweep", serve.SweepRequest{
			Datasets: sw.Datasets, Algos: sw.Algos, Configs: sw.Configs, SRAMMB: sw.SRAMMB,
		})
		if err != nil {
			return nil, err
		}
		var out []byte
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var ev serve.SweepEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			switch ev.Event {
			case "point":
				// The event embeds the document; the encoder drops its
				// trailing newline.
				out = append(append(out, bytes.TrimRight(ev.Result, "\n")...), '\n')
			case "error":
				t.Errorf("sweep point %d failed: %s", *ev.Index, ev.Error)
			}
		}
		return out, nil
	}
}

// jobsDoor builds the spec with NewSimSpec, and also hands the same
// sweep to Decode as a spec read off the socket would arrive: both must
// refuse an invalid sweep with the same error.
func jobsDoor(t *testing.T, sw point.Sweep) ([]byte, error) {
	raw, err := json.Marshal(jobs.Spec{Kind: "sim", Sim: &sw})
	if err != nil {
		t.Fatal(err)
	}
	job, decodeErr := jobs.Decode(raw, jobs.ExecOptions{})
	_, specErr := jobs.NewSimSpec(sw.Datasets, sw.Algos, sw.Configs, sw.SRAMMB)
	if fmt.Sprint(specErr) != fmt.Sprint(decodeErr) {
		t.Errorf("NewSimSpec refused with %v but Decode with %v", specErr, decodeErr)
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	var out []byte
	for i := 0; i < job.Points(); i++ {
		doc, err := job.Execute(context.Background(), i)
		if err != nil {
			t.Fatalf("job point %d: %v", i, err)
		}
		out = append(out, doc...)
	}
	return out, nil
}

// TestFrontDoorsAgree feeds the same specs to the four doors that emit
// canonical result documents — hyve-sim -result, hyve-serve /point and
// /sweep, and a cluster job — and requires byte-identical documents for
// a valid spec, and the same internal/point error, before any point
// executes, for an invalid one.
func TestFrontDoorsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	sched := cache.New(cache.Config{})
	ts := httptest.NewServer(serve.New(serve.Config{Sched: sched, Rate: 1e6, Burst: 1 << 20}).Handler())
	defer ts.Close()
	doors := []struct {
		name string
		run  door
	}{
		{"hyve-sim -result", simDoor},
		{"serve /point", pointDoor(ts.URL)},
		{"serve /sweep", sweepDoor(ts.URL)},
		{"jobs Execute", jobsDoor},
	}
	one := func(dataset, algon, config string, sramMB int64) point.Sweep {
		return point.Sweep{Datasets: []string{dataset}, Algos: []string{algon}, Configs: []string{config}, SRAMMB: sramMB}
	}

	for _, sw := range []point.Sweep{
		one("YT", "PR", "hyve-opt", -1),
		one("YT", "PR", "dram", -1),
		one("YT", "PR", "hyve-opt", 1<<43),
		one("YT", "PR", "hyve-opt", 1<<62),
		one("NOPE", "PR", "hyve-opt", 2),
		one("YT", "NOPE", "hyve-opt", 2),
		one("YT", "PR", "nope", 2),
		one("YT", "PR", "graphr", 2),
		one("YT", "PR", "cpu", 2),
		one("YT", "PR", "cpu-opt", 2),
	} {
		want := sw.Validate()
		if want == nil {
			t.Fatalf("%+v: point.Sweep.Validate accepted an invalid spec", sw)
		}
		for _, d := range doors {
			if _, err := d.run(t, sw); fmt.Sprint(err) != want.Error() {
				t.Errorf("%s refused %+v with %v, want the point error %q", d.name, sw, err, want)
			}
		}
	}
	if st := sched.Stats(); st != (cache.Stats{}) {
		t.Errorf("invalid specs reached the service's scheduler: %+v", st)
	}

	for _, tc := range []struct {
		sw, same point.Sweep // same, when set, must give identical bytes
	}{
		{sw: one("YT", "PR", "hyve-opt", 0), same: one("YT", "PR", "hyve-opt", 2)},
		{sw: one("YT", "BFS", "dram", 4), same: one("YT", "BFS", "dram", 0)},
		{sw: one("YT", "PR", "sd", 4)},
		{sw: point.Sweep{Datasets: []string{"YT"}, Algos: []string{"PR", "BFS"}, Configs: []string{"hyve", "reram"}, SRAMMB: 1}},
	} {
		ref, err := simDoor(t, tc.sw)
		if err != nil {
			t.Fatalf("%+v: %v", tc.sw, err)
		}
		if n := bytes.Count(ref, []byte("\n")); n != tc.sw.Len() {
			t.Fatalf("%+v: %d documents, want %d", tc.sw, n, tc.sw.Len())
		}
		for _, d := range doors[1:] {
			got, err := d.run(t, tc.sw)
			if err != nil {
				t.Errorf("%s refused %+v: %v", d.name, tc.sw, err)
			} else if !bytes.Equal(got, ref) {
				t.Errorf("%s differs from hyve-sim -result on %+v", d.name, tc.sw)
			}
		}
		if tc.same.Len() > 0 {
			if got, err := simDoor(t, tc.same); err != nil || !bytes.Equal(got, ref) {
				t.Errorf("%+v and %+v differ (err %v)", tc.sw, tc.same, err)
			}
		}
	}
}
