// Command perfbench is the repository benchmark. It runs one workload
// of the HADES simulator for a fixed host time and prints two kinds of
// numbers: host cost (what the simulator costs to run) and
// virtual-time service (what the modelled cluster delivers). It
// drives the system only through public entry points and checks every
// run with the repository's own checkers.
//
//	perfbench --workload kv-open --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// profiles Run and prints per-layer CPU and allocation shares plus
// per-layer counters, and writes its spans to .bench_build/perfbench.
// The last line of standard output is one JSON object; the exit code
// is nonzero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// outDir holds the generated specs and the traced-run output, inside
// the checkout the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "seed the workload is generated from")
		seconds = fs.Int("seconds", 10, "host seconds to measure for")
		traced  = fs.Int("trace", 0, "1 profiles the run and prints per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
		}
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := newBench(w, *seed, outDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := b.measure(time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res.print(stdout)
	if *traced == 1 {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := b.writeTrace(path, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "spans and attribution: %s\n", path)
	}
	if err := res.emit(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.correct {
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", res.checkErr)
		return 1
	}
	return 0
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one benchmark run's output.
type result struct {
	workload   string
	seed       int64
	traced     bool
	iterations int
	correct    bool
	checkErr   error
	attempted  int
	failed     int
	sim        simOutcome
	metrics    map[string]metric
	// wallOpsPerS and referenceMs are the unscaled throughput and the
	// reference workload's median time behind host_ops_per_s.
	wallOpsPerS, referenceMs float64
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // only a failed run has nothing to divide by
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the human-readable block: every metric by name and
// unit, the latency sample count and the simulation fingerprint.
func (r *result) print(w io.Writer) {
	mode := "end-to-end"
	if r.traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "workload %s seed %d: %d iterations, %s metrics\n", r.workload, r.seed, r.iterations, mode)
	fmt.Fprintf(w, "  fingerprint %s  ops %d ok %d fail_ratio %.6f latency samples %d\n",
		r.sim.fingerprint, r.sim.attempted, r.sim.ok, r.sim.failRatio(), r.sim.samples)
	if !r.traced {
		fmt.Fprintf(w, "  unscaled %.6g ops per wall second; reference workload %.4g ms (scaled to %v)\n",
			r.wallOpsPerS, r.referenceMs, referenceNominal)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if r.sim.regimeErr != nil {
		fmt.Fprintf(w, "  REGIME WARNING: %v\n", r.sim.regimeErr)
	}
	if r.checkErr != nil {
		fmt.Fprintf(w, "  CHECK FAILED: %v\n", r.checkErr)
	}
}

// emit writes the final JSON line.
func (r *result) emit(w io.Writer) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func init() {
	// Keep the collector at its default pacing even when the caller's
	// environment sets GOGC, so runs compare like with like.
	debug.SetGCPercent(100)
	// The simulator is single-goroutine; two Ps leave room for the GC
	// worker and the profiler on any machine.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
}
