package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hades/internal/cluster"
	"hades/internal/scenario"
	"hades/internal/vtime"
)

// bench runs one workload at one seed.
type bench struct {
	w        workload
	seed     int64
	specPath string
	epoch    time.Time
	spans    []span
}

// span is one timed call into the system, in host nanoseconds since
// the benchmark started. Spans of one iteration share an ID; the
// setup, run, result and verify spans have the iteration as parent.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// newBench generates the workload's spec from the seed and writes it
// where every iteration's set-up reads it back.
func newBench(w workload, seed int64, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(w.spec(seed), "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("spec-%s-seed%d.json", w.name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, specPath: path, epoch: time.Now()}, nil
}

func (b *bench) record(id, name, parent string, start time.Time) time.Time {
	end := time.Now()
	b.spans = append(b.spans, span{ID: id, Name: name, Parent: parent,
		Start: start.Sub(b.epoch).Nanoseconds(), End: end.Sub(b.epoch).Nanoseconds()})
	return end
}

// iteration is one set-up, run, result and verify cycle.
type iteration struct {
	setup, run time.Duration
	ref        time.Duration // the reference workload's time before Run
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	gcCPU      float64 // GC share of all CPU time during Run
	retained   uint64  // live heap after Run with the cluster reachable
	sim        simOutcome
}

// profiler accumulates the traced iterations' attribution.
type profiler struct {
	cpu, alloc map[string]float64
}

const (
	tracedMemRate = 4096
	cpuProfileHz  = 500
)

// iterate runs one cycle. Only the Run call is profiled.
func (b *bench) iterate(k int, prof *profiler) (iteration, error) {
	var it iteration
	id := fmt.Sprintf("%s-seed%d-it%d", b.w.name, b.seed, k)
	var base, m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	t := time.Now()
	start := t
	spec, err := scenario.Load(b.specPath)
	if err != nil {
		return it, err
	}
	c, err := spec.Build()
	if err != nil {
		return it, err
	}
	it.setup = time.Since(t)
	t = b.record(id, "setup", id, t)

	it.ref = reference()
	runtime.GC()
	var before allocSnapshot
	var cpuProf bytes.Buffer
	memRate := runtime.MemProfileRate
	if prof != nil {
		before = takeAllocSnapshot()
		runtime.MemProfileRate = tracedMemRate
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return it, err
		}
	}
	cpuSamples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtime.ReadMemStats(&m0)
	metrics.Read(cpuSamples)
	gc0, cpu0 := cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	t = time.Now()
	res, runErr := runGuarded(c, spec.Horizon())
	it.run = time.Since(t)
	t = b.record(id, "run", id, t)
	runtime.ReadMemStats(&m1)
	metrics.Read(cpuSamples)
	gc1, cpu1 := cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	if prof != nil {
		pprof.StopCPUProfile()
		runtime.SetCPUProfileRate(0)
		runtime.MemProfileRate = memRate
		allocByLayer(before, takeAllocSnapshot(), tracedMemRate, prof.alloc)
		if err := cpuByLayer(cpuProf.Bytes(), prof.cpu); err != nil {
			return it, err
		}
		t = b.record(id, "profile", id, t)
	}
	if runErr != nil {
		it.sim.checkErr = runErr
		return it, nil
	}

	doc := c.ReportNow(spec.Name)
	js, err := json.Marshal(doc)
	if err != nil {
		return it, err
	}
	t = b.record(id, "result", id, t)

	checkErr := verify(c, doc)
	it.sim = outcome(b.w, spec, c, res)
	it.sim.checkErr = checkErr
	it.sim.fingerprint = fingerprint(js, c.Log())
	b.record(id, "verify", id, t)

	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(c)
	runtime.KeepAlive(&res)
	b.record(id, "iteration", "", start)

	it.mallocs = m1.Mallocs - m0.Mallocs
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.gcCycles = m1.NumGC - m0.NumGC
	it.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	it.gcCPU = ratio(gc1-gc0, cpu1-cpu0)
	if m2.HeapAlloc > base.HeapAlloc {
		it.retained = m2.HeapAlloc - base.HeapAlloc
	}
	return it, nil
}

// runGuarded runs the cluster and reports a panic inside the
// simulator as a failed run instead of crashing the benchmark.
func runGuarded(c *cluster.Cluster, d vtime.Duration) (res cluster.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	return c.Run(d), nil
}

const (
	minIterations = 3
	// setupSamples is how many extra set-ups a run times: one set-up
	// takes a millisecond or two, too short for a few samples to give a
	// steady median.
	setupSamples = 40
)

// setupRounds times set-up alone: reading the spec and building the
// cluster, which is then dropped without running.
func (b *bench) setupRounds() ([]float64, error) {
	out := make([]float64, 0, setupSamples)
	ref := reference()
	for i := 0; i < setupSamples; i++ {
		t := time.Now()
		spec, err := scenario.Load(b.specPath)
		if err != nil {
			return nil, err
		}
		if _, err := spec.Build(); err != nil {
			return nil, err
		}
		out = append(out, scaled(time.Since(t), ref))
	}
	return out, nil
}

// measure runs a warm-up iteration and then iterations until the time
// is up. In traced mode every other iteration is profiled; the
// untraced ones give the baseline for the profiling overhead.
func (b *bench) measure(d time.Duration, traced bool) (*result, error) {
	start := time.Now()
	warm, err := b.iterate(0, nil)
	if err != nil {
		return nil, err
	}
	if warm.sim.checkErr != nil {
		// Nothing to measure: report the failure with zeroed metrics.
		d = 0
	}
	r := &result{workload: b.w.name, seed: b.seed, traced: traced, correct: true,
		sim: warm.sim, metrics: map[string]metric{}}
	setups, err := b.setupRounds()
	if err != nil {
		return nil, err
	}
	prof := &profiler{cpu: map[string]float64{}, alloc: map[string]float64{}}
	var plain, profiled []iteration
	all := []iteration{warm}
	for k := 1; ; k++ {
		enough := len(plain) >= minIterations && (!traced || len(profiled) >= minIterations)
		if warm.sim.checkErr != nil || enough && time.Since(start) >= d {
			break
		}
		var p *profiler
		if traced && k%2 == 1 {
			p = prof
		}
		it, err := b.iterate(k, p)
		if err != nil {
			return nil, err
		}
		all = append(all, it)
		if it.sim.checkErr != nil {
			break // the run is deterministic: every later one fails too
		}
		if p != nil {
			profiled = append(profiled, it)
		} else {
			plain = append(plain, it)
		}
	}
	r.iterations = len(all)

	var errs []error
	for _, it := range all {
		r.attempted += it.sim.attempted
		if it.sim.checkErr != nil {
			errs = append(errs, it.sim.checkErr)
		}
		if it.sim.fingerprint != r.sim.fingerprint {
			errs = append(errs, fmt.Errorf("fingerprint %s differs from the warm-up's %s: the run is not deterministic", it.sim.fingerprint, r.sim.fingerprint))
		}
	}
	if r.attempted == 0 {
		errs = append(errs, errors.New("no operation attempted"))
		r.attempted = 1
	}
	if r.checkErr = errors.Join(errs...); r.checkErr != nil {
		r.correct = false
		r.failed = r.attempted
	}

	if traced {
		b.layerMetrics(r, prof, plain, profiled)
	} else {
		for _, it := range plain {
			setups = append(setups, scaled(it.setup, it.ref))
		}
		r.set("setup_s", median(setups), "s")
		b.endToEnd(r, plain)
	}
	return r, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(its []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i, it := range its {
		xs[i] = f(it)
	}
	return median(xs)
}

func (b *bench) endToEnd(r *result, its []iteration) {
	const mb = 1 << 20
	done := float64(r.sim.done)
	r.set("host_ops_per_s", medianOf(its, func(it iteration) float64 { return done / scaled(it.run, it.ref) }), "1/s")
	r.wallOpsPerS = medianOf(its, func(it iteration) float64 { return done / it.run.Seconds() })
	r.referenceMs = medianOf(its, func(it iteration) float64 { return it.ref.Seconds() * 1e3 })
	r.set("allocs_per_op", medianOf(its, func(it iteration) float64 { return float64(it.mallocs) / done }), "count")
	r.set("alloc_bytes_per_op", medianOf(its, func(it iteration) float64 { return float64(it.allocBytes) / done }), "B")
	r.set("peak_rss_mb", peakRSSBytes()/mb, "MB")
	r.set("retained_heap_mb", medianOf(its, func(it iteration) float64 { return float64(it.retained) / mb }), "MB")
	r.set("sim_latency_p50_ms", r.sim.p50.Millis(), "ms")
	r.set("sim_latency_p99_ms", r.sim.p99.Millis(), "ms")
	r.set("sim_goodput_ops_s", r.sim.goodput, "1/s")
}

func (b *bench) layerMetrics(r *result, prof *profiler, plain, profiled []iteration) {
	share := func(m map[string]float64, l string) float64 {
		total := 0.0
		for _, v := range m {
			total += v
		}
		return ratio(m[l], total)
	}
	for _, l := range layers {
		r.set(l+".cpu_share", share(prof.cpu, l), "ratio")
		r.set(l+".alloc_bytes_share", share(prof.alloc, l), "ratio")
	}
	runTime := func(it iteration) float64 { return it.run.Seconds() }
	r.set("bench.profile_overhead", medianOf(profiled, runTime)/medianOf(plain, runTime), "ratio")
	r.set("bench.reference_ms", medianOf(plain, func(it iteration) float64 { return it.ref.Seconds() * 1e3 }), "ms")
	r.set("go.gc_cycles", medianOf(plain, func(it iteration) float64 { return float64(it.gcCycles) }), "count")
	r.set("go.gc_pause_ms", medianOf(plain, func(it iteration) float64 { return it.gcPause.Seconds() * 1e3 }), "ms")
	r.set("go.gc_cpu_fraction", medianOf(plain, func(it iteration) float64 { return it.gcCPU }), "ratio")
	for name, v := range r.sim.counters {
		r.set(name, v, counterUnit(name))
	}
}

// counterUnit derives a counter's unit from its name.
func counterUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	default:
		return "count"
	}
}

// writeTrace writes the traced run's spans and per-layer attribution.
func (b *bench) writeTrace(path string, r *result) error {
	doc := struct {
		Workload    string            `json:"workload"`
		Seed        int64             `json:"seed"`
		Fingerprint string            `json:"fingerprint"`
		Spans       []span            `json:"spans"`
		Metrics     map[string]metric `json:"metrics"`
	}{b.w.name, b.seed, r.sim.fingerprint, b.spans, r.metrics}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
