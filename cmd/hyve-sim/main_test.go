package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/point"
)

// spec is shorthand for a point at the default SRAM size.
func spec(dataset, algon, config string) point.Spec {
	return point.Spec{Dataset: dataset, Algo: algon, Config: config}
}

// sweep is shorthand for a sweep at the 2 MB the -sram flag defaults to.
func sweep(datasets, algos, configs []string) point.Sweep {
	return point.Sweep{Datasets: datasets, Algos: algos, Configs: configs, SRAMMB: 2}
}

func TestRunOneSmokesEveryConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	for _, config := range []string{"hyve-opt", "sd", "graphr", "cpu", "cpu-opt"} {
		if err := runOne(io.Discard, spec("YT", "PR", config), true, modeText); err != nil {
			t.Errorf("runOne(YT, PR, %s): %v", config, err)
		}
	}
	if err := runSweep(io.Discard, io.Discard, sweep([]string{"nope"}, []string{"PR"}, []string{"hyve"}), false, modeText, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := runSweep(io.Discard, io.Discard, sweep([]string{"YT"}, []string{"nope"}, []string{"hyve"}), false, modeText, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestRunOneJSON checks -json emits a decodable artifact document with
// the headline metrics, for both the core simulator and a baseline.
func TestRunOneJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	for _, config := range []string{"hyve-opt", "graphr"} {
		var buf bytes.Buffer
		if err := runOne(&buf, spec("YT", "PR", config), false, modeArtifact); err != nil {
			t.Fatalf("runOne(YT, PR, %s, json): %v", config, err)
		}
		var doc struct {
			Schema  string `json:"schema"`
			ID      string `json:"id"`
			Metrics []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("config %s: output is not valid JSON: %v\n%s", config, err, buf.String())
		}
		if doc.Schema == "" || doc.ID == "" {
			t.Errorf("config %s: missing schema/id in %s", config, buf.String())
		}
		found := false
		for _, m := range doc.Metrics {
			if m.Name == "efficiency" && m.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("config %s: no positive efficiency metric in %s", config, buf.String())
		}
	}
}

// TestRunOneResult checks -result emits exactly the canonical
// hyve/result/v1 document of a direct core.Simulate — the byte-identity
// the serve-smoke gate compares against hyve-serve responses.
func TestRunOneResult(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	var buf bytes.Buffer
	if err := runOne(&buf, spec("YT", "PR", "sd"), false, modeResult); err != nil {
		t.Fatalf("runOne(YT, PR, sd, result): %v", err)
	}
	d, err := graph.DatasetByName("YT")
	if err != nil {
		t.Fatal(err)
	}
	p, err := algo.ByName("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := core.WorkloadFor(d, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Simulate(core.SRAMDRAM(), wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cache.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-result output is not the canonical document:\ngot  %.120s\nwant %.120s", buf.Bytes(), want)
	}
	if _, err := cache.DecodeResult(buf.Bytes()); err != nil {
		t.Errorf("-result output does not decode: %v", err)
	}
	if err := runSweep(io.Discard, io.Discard, sweep([]string{"YT"}, []string{"PR"}, []string{"graphr"}), false, modeResult, 0); err == nil {
		t.Error("-result accepted a baseline config with no canonical document")
	}
}

// TestRunSweepDeterministic checks the sweep contract: a multi-point run
// emits every point in dataset-major order and produces the same
// per-point bytes at one worker and many.
func TestRunSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	datasets := []string{"YT", "WK"}
	algos := []string{"PR", "BFS"}
	configs := []string{"hyve-opt", "sd"}
	var serial, par, serialProg, parProg bytes.Buffer
	if err := runSweep(&serial, &serialProg, sweep(datasets, algos, configs), false, modeText, -1); err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	if err := runSweep(&par, &parProg, sweep(datasets, algos, configs), false, modeText, 8); err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	// With the summary line routed to the progress writer, stdout must be
	// byte-identical between serial and parallel sweeps.
	if got, want := par.String(), serial.String(); got != want {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	// Dataset-major emission order.
	out := serial.String()
	prev := -1
	for _, d := range datasets {
		for _, a := range algos {
			for _, c := range configs {
				head := "--- " + d + " " + a + " " + c + " ---"
				at := strings.Index(out, head)
				if at < 0 {
					t.Fatalf("missing point header %q", head)
				}
				if at < prev {
					t.Errorf("point %q emitted out of order", head)
				}
				prev = at
			}
		}
	}
	if !strings.Contains(serialProg.String(), "8 points:") {
		t.Errorf("sweep summary line missing from progress output:\n%s", serialProg.String())
	}
	if strings.Contains(out, "8 points:") {
		t.Errorf("sweep summary line leaked into stdout:\n%s", out)
	}
}

func TestRunSweepSinglePointUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation smoke test")
	}
	var single, direct bytes.Buffer
	if err := runSweep(&single, io.Discard, sweep([]string{"YT"}, []string{"PR"}, []string{"hyve-opt"}), false, modeText, 8); err != nil {
		t.Fatalf("single-point sweep: %v", err)
	}
	if err := runOne(&direct, spec("YT", "PR", "hyve-opt"), false, modeText); err != nil {
		t.Fatalf("runOne: %v", err)
	}
	if single.String() != direct.String() {
		t.Errorf("single-point sweep output differs from direct runOne:\n--- sweep ---\n%s\n--- direct ---\n%s",
			single.String(), direct.String())
	}
	if err := runSweep(io.Discard, io.Discard, sweep(nil, []string{"PR"}, []string{"hyve"}), false, modeText, 0); err == nil {
		t.Error("empty dataset list accepted")
	}
}
