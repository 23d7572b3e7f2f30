// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload per invocation inside a single process that also
// hosts the system under test, so every layer can be timed from outside
// through the layers' public interfaces:
//
//	replay      keeper.RunContext over the four Table IV mixes (sim, nand,
//	            ssd, ftl, features, keeper, policy, nn; no serving code)
//	fleet-wire  a 64-deep closed loop over 2 wire connections into the
//	            router's wire front, proxied over wire to 2 nodes at accel 20
//	            (the CPU-bound serving path)
//	fleet-http  2 keep-alive HTTP/1.1 clients posting JSON /io to the
//	            router, proxied over wire to 2 nodes at accel 1, with one
//	            tenant migrated away and back (paced serving, HTTP front,
//	            migration control plane)
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fleet-wire --seed 1 --seconds 10 --trace 0
//
// Trace 0 prints the end-to-end metrics of an untraced run; trace 1 runs the
// workload untraced and then traced and prints the per-layer metrics, the
// traced run's own end-to-end numbers, and their difference (the tracing
// overhead). Human-readable lines go first; the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// Workload names, in the order --workload all runs them.
var workloads = []string{"replay", "fleet-wire", "fleet-http"}

// procs is the benchmark's GOMAXPROCS. On a shared 2-vCPU VM, work spread
// over both vCPUs drifted by up to 27% between sets of runs twenty minutes
// apart, while single-threaded work drifted by 6% (see README.md, Noise).
const procs = 1

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "replay, fleet-wire, fleet-http, or all (each in turn, namespaced metrics)")
	seed := fs.Int64("seed", 1, "seeds the trained model, the replay traces and the request stream")
	seconds := fs.Int("seconds", 10, "wall seconds each measured phase runs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, w := range names {
		if !known(w) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v or all)\n", w, workloads)
			return 2
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	host := probeHost(".")
	envJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	final := outcome{correct: true, metrics: map[string]metricValue{}}
	for _, w := range names {
		fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", w, *seed, *seconds, *traced)
		o, err := runWorkload(ctx, w, *seed, *seconds, *traced == 1, host)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		o.print(stdout)
		final.correct = final.correct && o.correct
		final.attempted += o.attempted
		final.failed += o.failed
		for k, v := range o.metrics {
			if len(names) > 1 {
				k = w + "." + k
			}
			final.metrics[k] = v
		}
	}
	line, err := json.Marshal(final.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's result: the checks, the counts, the metrics in
// the result line, and the human-readable report lines printed before it.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	checks    []string
	metrics   map[string]metricValue
	report    []string
}

func (o *outcome) set(name string, v float64, note string) {
	u := unitOf(name)
	o.metrics[name] = metricValue{Value: v, Unit: u}
	o.note(name, v, u, note)
}

// note adds a report line for a metric that is printed but not part of the
// result line.
func (o *outcome) note(name string, v float64, unit, note string) {
	line := fmt.Sprintf("metric %-32s %14.6g %s", name, v, unit)
	if note != "" {
		line += "  (" + note + ")"
	}
	o.report = append(o.report, line)
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

func (o *outcome) print(w io.Writer) {
	for _, l := range o.report {
		fmt.Fprintln(w, l)
	}
	for _, c := range o.checks {
		fmt.Fprintln(w, "check failed:", c)
	}
	if o.correct {
		fmt.Fprintln(w, "checks passed")
	}
}

func (o outcome) result() any {
	return struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.correct, o.attempted, o.failed, o.metrics}
}
