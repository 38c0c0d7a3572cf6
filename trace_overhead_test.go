package hades_test

// Tracing overhead and passivity checks for the observability plane.
//
// TestTracingOverheadGate is the CI gate behind the tracing cost
// budget: tracing at the default sample rate must stay within a few
// percent of ns/op versus tracing disabled on the high-fanout KV
// workload. Comparing two independent `go test -bench` processes
// cannot resolve single-digit percentages — run-to-run machine drift
// alone moves ns/op by 10-30% — so the gate measures a *paired*
// ratio: both legs alternate within one process, every repetition
// contributes an off/traced pair taken under the same machine
// conditions, and the statistic is the ratio of the two summed
// runtimes. With 120+ reps the paired ratio reproduces within a
// couple of points; measured on a quiet machine it sits around 4-6%
// (the trace package itself profiles at ~2.5% CPU with zero
// steady-state allocations; the rest is cache and allocator
// second-order cost).
//
// The gate is opt-in (HADES_TRACE_GATE=1) because it runs the
// workload hundreds of times; CI's bench-trend job enables it.

import (
	"os"
	"strconv"
	"testing"
	"time"

	"hades/internal/cluster"
)

// tracingBudget is the observability plane's cost contract: tracing
// at the default sample rate should cost no more than this fraction
// of ns/op versus tracing disabled.
const tracingBudget = 0.05

// tracingNoiseAllowance absorbs the residual jitter of the paired
// measurement on shared CI runners (a couple of points even with
// pairing). The gate fails past budget+allowance — loose enough not
// to flake, tight enough to catch any real regression in the
// tracing hot path.
const tracingNoiseAllowance = 0.03

// pairedOverhead is the measurement behind both overhead gates. It
// runs the high-fanout KV workload reps times under each of two
// configurations inside this one process and returns the ratio of the
// summed runtimes, on over off, minus one. reps is 120 unless the
// repsEnv environment variable names another count.
func pairedOverhead(t *testing.T, repsEnv string, off, on cluster.Config) (ratio float64, reps int) {
	t.Helper()
	reps = 120
	if v := os.Getenv(repsEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			t.Fatalf("bad %s %q", repsEnv, v)
		}
		reps = n
	}
	timed := func(cfg cluster.Config) time.Duration {
		t0 := time.Now()
		_, _, cl := highFanoutKV(cfg)
		if cl.Stats.Acked != cl.Stats.Submitted {
			t.Fatalf("overhead workload acked %d of %d", cl.Stats.Acked, cl.Stats.Submitted)
		}
		return time.Since(t0)
	}
	var offSum, onSum time.Duration
	for i := 0; i < reps; i++ {
		// Alternate leg order so slow drift (GC state, thermal, noisy
		// neighbours) cancels instead of biasing one leg.
		if i%2 == 0 {
			offSum += timed(off)
			onSum += timed(on)
		} else {
			onSum += timed(on)
			offSum += timed(off)
		}
	}
	return float64(onSum)/float64(offSum) - 1, reps
}

func TestTracingOverheadGate(t *testing.T) {
	if os.Getenv("HADES_TRACE_GATE") == "" {
		t.Skip("paired overhead gate is opt-in: set HADES_TRACE_GATE=1")
	}
	// The traced leg runs at the cluster default sample rate.
	ratio, reps := pairedOverhead(t, "HADES_TRACE_GATE_REPS",
		cluster.Config{Trace: &cluster.TraceParams{Disabled: true}}, cluster.Config{})
	t.Logf("paired tracing overhead over %d reps: %+.1f%% (budget %.0f%% + %.0f%% noise allowance)",
		reps, 100*ratio, 100*tracingBudget, 100*tracingNoiseAllowance)
	if ratio > tracingBudget+tracingNoiseAllowance {
		t.Fatalf("tracing at the default sample rate costs %+.1f%% vs disabled; budget is %.0f%% (+%.0f%% noise allowance)",
			100*ratio, 100*tracingBudget, 100*tracingNoiseAllowance)
	}
}

// TestTracingPassive pins down that tracing is pure observation: the
// simulation behaves identically with the tracer disabled, sampling
// nothing, and sampling everything. Any divergence means tracing
// leaked into scheduling, randomness or protocol state.
func TestTracingPassive(t *testing.T) {
	type fingerprint struct {
		events  int
		acked   int
		retries int
	}
	run := func(tp *cluster.TraceParams) fingerprint {
		c, _, cl := highFanoutKV(cluster.Config{Trace: tp})
		return fingerprint{events: len(c.Log().Events()), acked: cl.Stats.Acked, retries: cl.Stats.Retries}
	}
	off := run(&cluster.TraceParams{Disabled: true})
	zero := run(&cluster.TraceParams{SampleRate: 0})
	one := run(&cluster.TraceParams{SampleRate: 1})
	if off != zero || zero != one {
		t.Fatalf("tracing is not passive: off=%+v zero=%+v one=%+v", off, zero, one)
	}
	if off.acked == 0 {
		t.Fatal("workload acked nothing; fingerprint is vacuous")
	}
}
