package hades_test

// Metrics-plane overhead and passivity checks, the metrics twin of
// trace_overhead_test.go.
//
// TestMetricsOverheadGate is the CI gate behind the metrics cost
// budget: the always-on plane (instruments wired through every layer,
// scrapes every 5ms of virtual time) must stay within a few percent of
// runtime versus the plane disabled, measured as a paired alternating
// ratio for the same reasons as the tracing gate. It is opt-in
// (HADES_METRICS_GATE=1); CI's metrics-smoke job enables it.
//
// TestMetricsPassive pins down that the plane is pure observation:
// with metrics off, on, and on-with-breaching-SLO-rules, the monitor
// log (minus the SLO events the plane itself emits) and the client
// outcomes are identical event for event.

import (
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"hades/internal/cluster"
	"hades/internal/metrics"
	"hades/internal/monitor"
)

// metricsBudget is the metrics plane's cost contract versus disabled.
const metricsBudget = 0.05

// metricsNoiseAllowance absorbs paired-measurement jitter on shared
// runners, as in the tracing gate.
const metricsNoiseAllowance = 0.03

func TestMetricsOverheadGate(t *testing.T) {
	if os.Getenv("HADES_METRICS_GATE") == "" {
		t.Skip("paired overhead gate is opt-in: set HADES_METRICS_GATE=1")
	}
	// The measured leg runs the plane with its defaults.
	ratio, reps := pairedOverhead(t, "HADES_METRICS_GATE_REPS",
		cluster.Config{Metrics: &cluster.MetricsParams{Disabled: true}}, cluster.Config{})
	t.Logf("paired metrics overhead over %d reps: %+.1f%% (budget %.0f%% + %.0f%% noise allowance)",
		reps, 100*ratio, 100*metricsBudget, 100*metricsNoiseAllowance)
	if ratio > metricsBudget+metricsNoiseAllowance {
		t.Fatalf("the metrics plane costs %+.1f%% vs disabled; budget is %.0f%% (+%.0f%% noise allowance)",
			100*ratio, 100*metricsBudget, 100*metricsNoiseAllowance)
	}
}

// TestMetricsPassive: the simulation must behave identically with the
// plane off, on, and on with always-breaching SLO rules. The
// fingerprint hashes every monitor event except the SLO breach/clear
// events the plane itself emits — those are its declared output, not
// a behavioral divergence — plus the client outcome counters.
func TestMetricsPassive(t *testing.T) {
	type fingerprint struct {
		logHash uint64
		events  int
		acked   int
		retries int
	}
	run := func(mp *cluster.MetricsParams) (fingerprint, *cluster.Cluster) {
		c, _, cl := highFanoutKV(cluster.Config{Metrics: mp})
		h := fnv.New64a()
		events := 0
		for _, e := range c.Log().Events() {
			if e.Kind == monitor.KindSLOBreach || e.Kind == monitor.KindSLOClear {
				continue
			}
			events++
			fmt.Fprintf(h, "%d|%d|%d|%s|%s\n", e.At, e.Kind, e.Node, e.Subject, e.Detail)
		}
		return fingerprint{logHash: h.Sum64(), events: events, acked: cl.Stats.Acked, retries: cl.Stats.Retries}, c
	}
	off, _ := run(&cluster.MetricsParams{Disabled: true})
	on, _ := run(nil)
	// Rules that always fail, so the probe engine exercises its whole
	// breach path while the fingerprint must stay untouched.
	loud, c := run(&cluster.MetricsParams{Rules: []metrics.Rule{
		{Name: "impossible", Metric: "kv.ack.latency", Stat: metrics.StatP99, Op: metrics.OpLE, Threshold: 1},
		{Name: "quiet-net", Metric: "net.sent", Op: metrics.OpLE, Threshold: 0},
	}})
	if off != on || on != loud {
		t.Fatalf("metrics plane is not passive: off=%+v on=%+v loud=%+v", off, on, loud)
	}
	if off.acked == 0 {
		t.Fatal("workload acked nothing; fingerprint is vacuous")
	}
	if len(c.Metrics().Breaches()) == 0 {
		t.Fatal("always-breaching rules recorded no breach; the loud leg proved nothing")
	}
}
