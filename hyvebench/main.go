// Command hyvebench is the repository benchmark. It runs one workload
// against the HyVE command-line programs built from the same checkout,
// checks every result document byte for byte against an in-process
// reference, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds the programs first):
//
//	hyvebench -bin DIR --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// program runs; with --trace 1 it carries the per-layer metrics of a
// traced in-process run (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// tracedGCPercent is the Go GC target of a traced run and of the
// untraced programs it starts.
const tracedGCPercent = 25

// options is the parsed command line plus the derived run environment.
type options struct {
	ctx      context.Context // cancelled on SIGINT/SIGTERM; every program started derives from it
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root the programs were built from
	bin      string // directory holding the built programs
	work     string // private scratch directory for this run
	nproc    int
}

// window is how long a workload keeps starting new rounds.
func (o *options) window() time.Duration { return time.Duration(o.seconds) * time.Second }

// prog is the path of one built program.
func (o *options) prog(name string) string { return filepath.Join(o.bin, name) }

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced: the correctness tally, the
// metrics the result line carries, and report-only figures.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
	report    []metric       // printed, not part of the result line
	notes     map[string]any // extra report fields (digests, sample counts)
}

func (oc *outcome) add(name string, v float64, unit string) {
	oc.metrics = append(oc.metrics, metric{name, v, unit})
}

func (oc *outcome) note(name string, v float64, unit string) {
	oc.report = append(oc.report, metric{name, v, unit})
}

// workload runs one workload in one mode.
type workload struct {
	why    string
	run    func(*options) (*outcome, error)
	traced func(*options) (*outcome, error)
}

var workloads = map[string]workload{
	"sweep-cold":       {why: "fresh hyve-sim sweep: generation, partition and functional runs", run: runSweepCold, traced: traceSweepCold},
	"serve-zipf":       {why: "hyve-serve /point under Zipf repeats: serve, cache and workload assembly", run: runServeZipf, traced: traceServeZipf},
	"cluster-prepared": {why: "hyve-sweepd with two loopback workers over prepared containers", run: runClusterPrepared, traced: traceClusterPrepared},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sweep-cold, serve-zipf, cluster-prepared")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to keep starting measured rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory with the built hyve-* programs")
	flag.StringVar(&o.root, "root", ".", "checkout root the programs were built from (for the host block)")
	flag.Parse()
	o.trace = traceFlag == 1
	o.nproc = runtime.NumCPU()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o.ctx = ctx

	w, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "hyvebench: unknown workload %q (want one of %v)\n", o.workload, names)
		return 2
	}
	if o.seconds < 1 || o.bin == "" {
		fmt.Fprintln(os.Stderr, "hyvebench: -seconds must be positive and -bin set")
		return 2
	}
	var err error
	if o.work, err = os.MkdirTemp(filepath.Dir(o.bin), "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "hyvebench:", err)
		return 1
	}
	defer os.RemoveAll(o.work)

	run := w.run
	if o.trace {
		run = w.traced
		// The traced run hosts the program in this process, and every
		// weighted workload it digests stays in the program's digest
		// memo (the clone leak the serve workload exposes). A low GC
		// target keeps the peak heap near the live one. The untraced
		// round it is compared with inherits the same target, so the
		// overhead ratio compares like with like.
		debug.SetGCPercent(tracedGCPercent)
		if err := os.Setenv("GOGC", fmt.Sprint(tracedGCPercent)); err != nil {
			fmt.Fprintln(os.Stderr, "hyvebench:", err)
			return 1
		}
	}
	oc, err := run(&o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyvebench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := emit(os.Stdout, &o, w, oc); err != nil {
		fmt.Fprintln(os.Stderr, "hyvebench:", err)
		return 1
	}
	return 0
}

// emit prints the human report, the full report object, and finally
// the result line the benchmark contract asks for.
func emit(out io.Writer, o *options, w workload, oc *outcome) error {
	if oc.attempted < 1 {
		return errors.New("no operation attempted")
	}
	errRate := float64(oc.failed) / float64(oc.attempted)
	fmt.Fprintf(out, "workload %s (seed %d, %ds, trace=%v): %s\n", o.workload, o.seed, o.seconds, o.trace, w.why)
	for _, m := range oc.metrics {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range oc.report {
		fmt.Fprintf(out, "  %-28s %14.6g %s   (report only)\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "  %-28s %14.6g ratio   (%d failed of %d attempted)\n", "error_rate", errRate, oc.failed, oc.attempted)

	report := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": hostBlock(o.root), "metrics": oc.metrics, "report": oc.report,
		"error_rate": errRate, "attempted": oc.attempted, "failed": oc.failed,
	}
	for k, v := range oc.notes {
		report[k] = v
	}
	rb, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "report %s\n", rb)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(oc.metrics))
	for _, m := range oc.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{oc.failed == 0, oc.attempted, oc.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
