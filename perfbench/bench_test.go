package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// simView is the part of an outcome that must not depend on how the
// run was measured.
func simView(o simOutcome) map[string]any {
	return map[string]any{
		"fingerprint": o.fingerprint, "attempted": o.attempted, "done": o.done,
		"ok": o.ok, "p50": o.p50, "p99": o.p99, "samples": o.samples,
		"goodput": o.goodput, "outage": o.outage, "counters": o.counters,
	}
}

func iterateOnce(t *testing.T, w workload, seed int64, prof *profiler) iteration {
	t.Helper()
	b, err := newBench(w, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	it, err := b.iterate(0, prof)
	if err != nil {
		t.Fatal(err)
	}
	if it.sim.checkErr != nil {
		t.Fatalf("%s seed %d: check failed: %v", w.name, seed, it.sim.checkErr)
	}
	return it
}

// TestSimulationIsDeterministicAndPassive runs every workload twice
// untraced and once profiled at the same seed: the fingerprint and
// every virtual-time number must be identical across the three.
func TestSimulationIsDeterministicAndPassive(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first := iterateOnce(t, w, 1, nil)
			again := iterateOnce(t, w, 1, nil)
			prof := &profiler{cpu: map[string]float64{}, alloc: map[string]float64{}}
			traced := iterateOnce(t, w, 1, prof)
			if !reflect.DeepEqual(simView(first.sim), simView(again.sim)) {
				t.Errorf("same seed, different outcome:\n%v\n%v", simView(first.sim), simView(again.sim))
			}
			if !reflect.DeepEqual(simView(first.sim), simView(traced.sim)) {
				t.Errorf("profiling changed the outcome:\n%v\n%v", simView(first.sim), simView(traced.sim))
			}
			if prof.cpu["simkern"] <= 0 || prof.alloc["simkern"] <= 0 {
				t.Errorf("profile charged nothing to simkern: cpu %v alloc %v", prof.cpu, prof.alloc)
			}
		})
	}
}

// TestRegimes checks, on the development seed and on a second seed,
// that every run passes the repository's checkers and that each
// workload stays in the regime it was built to measure: kv-open keeps
// up with its offered load, txn-closed-failover stays below the
// contention knee, rt-edf-burst drains after every burst and
// pubsub-storm installs its merge view.
func TestRegimes(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			it := iterateOnce(t, w, seed, nil)
			o := it.sim
			if o.regimeErr != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, o.regimeErr)
			}
			if o.samples < 1000 {
				t.Errorf("%s seed %d: %d latency samples leave fewer than 10 beyond the p99", w.name, seed, o.samples)
			}
		}
	}
}

func TestSeedChangesTheRun(t *testing.T) {
	w, _ := workloadByName("kv-open")
	a := iterateOnce(t, w, 1, nil)
	b := iterateOnce(t, w, 2, nil)
	if a.sim.fingerprint == b.sim.fingerprint {
		t.Fatalf("seeds 1 and 2 gave the same run %s", a.sim.fingerprint)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "hades/internal/monitor.(*Log).Record", "hades/internal/simkern.(*Engine).Run"}, "monitor"},
		{[]string{"hades/internal/vtime.Time.Add", "hades/internal/eventq.(*Queue).Push"}, "eventq"},
		{[]string{"hades/internal/storage.(*Store).Write", "hades/internal/replication.(*Group).apply"}, "replication"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "go.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "go.other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte{0x12, 0xff}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

// benchmarkFile is the part of the repository's BENCHMARK.json the
// command's output must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileListsTheWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	var got, want []string
	for _, w := range f.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
}

// TestCommandOutput runs the command end to end on the cheapest
// workload in both modes: the last line must be the result object
// carrying exactly the metrics BENCHMARK.json lists for the mode.
func TestCommandOutput(t *testing.T) {
	f := readBenchmarkFile(t)
	t.Chdir(t.TempDir())
	for mode, want := range map[string][]struct{ Name, Unit string }{"0": f.EndToEnd, "1": f.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "rt-edf-burst", "--seed", "3", "--seconds", "1", "--trace", mode}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", mode, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct %v attempted %d failed %d", mode, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics printed, BENCHMARK.json lists %d", mode, len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
				t.Errorf("trace %s: metric %s (%s) printed as %+v", mode, m.Name, m.Unit, got)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv-open", "--seconds", "0"},
		{"--workload", "kv-open", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
