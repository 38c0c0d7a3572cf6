package main

import (
	"fmt"
	"math/rand"

	"hades/internal/scenario"
	"hades/internal/vtime"
)

// A workload turns a seed into the scenario the program runs. The
// program sees only the generated spec (written to a JSON file and read
// back through scenario.Load); every random choice below comes from the
// seed, so the same seed always yields the same spec.
type workload struct {
	name string
	// fault is true when the spec injects a crash or a partition, which
	// makes the outage metric meaningful.
	// The fault lies in the last second of the run, inside the window
	// the metrics series retain at their default capacity.
	fault bool
	// latencyLoad names the load generator whose completion latencies
	// are the workload's latency; empty for task workloads.
	latencyLoad string
	spec        func(seed int64) scenario.Spec
}

var workloads = []workload{
	{
		name:        "kv-open",
		latencyLoad: "kv",
		spec:        kvOpen,
	},
	{
		name:        "txn-closed-failover",
		fault:       true,
		latencyLoad: "txn",
		spec:        txnClosedFailover,
	},
	{
		name:  "pubsub-storm",
		fault: true,
		// Best-effort publishes complete exactly one broadcast delay
		// after they are sent, a constant of the model; the latency is
		// that of the reliable publishes.
		latencyLoad: "feed",
		spec:        pubsubStorm,
	},
	{
		name: "rt-edf-burst",
		spec: rtEDFBurst,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// keys returns n distinct key names; declaration order is the zipf rank.
func keys(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// Client nodes sit after the 4 shards x 3 replicas of the data-plane
// workloads.
const (
	dataShards   = 4
	dataReplicas = 3
	clientA      = dataShards * dataReplicas
	clientB      = clientA + 1
)

func dataPlane() *scenario.ShardsSpec {
	return &scenario.ShardsSpec{
		Count: dataShards, ReplicasPer: dataReplicas, Style: "semi-active",
		Session: &scenario.SessionSpec{MaxBatch: 8, FlushIntervalMs: 0.5, PipelineDepth: 2},
	}
}

// kvOpen offers 4000 writes/s as a Poisson stream from two client
// nodes, mildly zipf-skewed over 300 keys. Arrivals stop 50ms before
// the horizon so every write can be acknowledged inside the run.
func kvOpen(seed int64) scenario.Spec {
	const horizon = 1200.0
	sh := dataPlane()
	sh.Load = []scenario.LoadSpec{{
		Name: "kv", Workload: "kv", Mode: "open", Nodes: []int{clientA, clientB},
		Arrival: 4000, Keys: keys("k", 300), ZipfSkew: 0.6,
		StartMs: 20, EndMs: horizon - 50,
	}}
	return scenario.Spec{
		Name: "kv-open", Nodes: clientB + 1, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: horizon, Shards: sh,
	}
}

// txnClosedFailover runs 8 closed-loop sessions of two-key transfers
// over 64 accounts. Eight sessions sit below the contention knee; at 64
// most transfers deadline-abort and the workload would measure only the
// abort path. The primary of every shard crashes once, in an order the
// seed picks, and rejoins 250ms later. The failovers stall a few
// percent of the transfers, so the p99 lies in the failover tail on
// every seed; with one failover the stalled transfers are about 1% of
// the run and the p99 jumps between the steady and the failover tail.
func txnClosedFailover(seed int64) scenario.Spec {
	const horizon = 2000.0
	rng := rand.New(rand.NewSource(seed))
	sh := dataPlane()
	sh.Load = []scenario.LoadSpec{{
		Name: "txn", Workload: "txn", Mode: "closed", Nodes: []int{clientA, clientB},
		Sessions: 8, ThinkMs: 1, Keys: keys("acct", 64),
		StartMs: 20, EndMs: horizon - 60,
	}}
	var faults []scenario.FaultSpec
	for i, shard := range rng.Perm(dataShards) {
		at := 300 + 400*float64(i) + rng.Float64()*50
		faults = append(faults, scenario.FaultSpec{
			Kind: "crash", Node: shard * dataReplicas, AtMs: at, RecoverMs: at + 250,
		})
	}
	return scenario.Spec{
		Name: "txn-closed-failover", Nodes: clientB + 1, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: horizon, Shards: sh, Faults: faults,
	}
}

// pubsubStorm drives two topics: an open-loop storm of best-effort
// "sensors" publishes whose rate ramps up and back down, and a steady
// open-loop feed of reliable durable "telemetry" publishes fanned out
// to four subscribers. A backup replica of the telemetry shard, which
// also hosts a telemetry subscriber, is partitioned away and healed:
// the shard installs a merge view at the heal and replays the durable
// history to the subscriber. Cutting off the primary instead would
// stall the feed for the failover, and that tail, a few percent of the
// publishes, would make the p99 swing from seed to seed.
func pubsubStorm(seed int64) scenario.Spec {
	const horizon = 5000.0
	rng := rand.New(rand.NewSource(seed))
	cutAt := 4000 + rng.Float64()*50
	sh := &scenario.ShardsSpec{
		Count: 2, ReplicasPer: 3, Style: "semi-active",
		Routes: map[string]int{"telemetry": 0, "sensors": 1},
	}
	return scenario.Spec{
		Name: "pubsub-storm", Nodes: 8, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: horizon, Shards: sh,
		PubSub: &scenario.PubSubSpec{
			Topics: []scenario.TopicSpec{
				{Name: "telemetry", Reliability: "reliable", DeadlineMs: 10, HistoryDepth: 16, Durable: true},
				{Name: "sensors", Reliability: "bestEffort"},
			},
			Subscribers: []scenario.SubscriberSpec{
				{Topic: "telemetry", Node: 2},
				{Topic: "telemetry", Node: 4},
				{Topic: "telemetry", Node: 5},
				{Topic: "telemetry", Node: 7},
				{Topic: "sensors", Node: 1},
				{Topic: "sensors", Node: 3},
				{Topic: "sensors", Node: 7},
			},
			Load: []scenario.LoadSpec{
				{Name: "storm", Mode: "open", Nodes: []int{6, 7},
					Arrival: 250, Keys: []string{"sensors"},
					StartMs: 20, EndMs: horizon - 60},
				{Name: "feed", Mode: "open", Nodes: []int{6},
					Arrival: 500, Keys: []string{"telemetry"},
					StartMs: 20, EndMs: horizon - 60},
			},
		},
		Faults: []scenario.FaultSpec{
			{Kind: "partition", Partition: [][]int{{2}, {0, 1, 3, 4, 5, 6, 7}}, AtMs: cutAt, HealMs: cutAt + 150 + rng.Float64()*50},
		},
	}
}

// Burst shape of rt-edf-burst: every node receives one sporadic job of
// about burstWCETMs every burstPeriodMs. With the periodic load near
// 0.8 the burst overloads the node for a few milliseconds, and the
// backlog drains well inside one burst period.
const (
	rtNodes       = 3
	burstTask     = "burst"
	burstPeriodMs = 200.0
	burstWCETMs   = 14.0
	// drainWindow bounds how long after a burst deadline misses may
	// still occur.
	drainWindow = 120 * vtime.Millisecond
)

// rtEDFBurst is a three-node task set under EDF+SRP: per node, eight
// periodic tasks (two sharing a resource), a cross-node three-stage
// pipeline and a two-stage pipeline, plus the sporadic burst task. The
// seed jitters every WCET by up to 1%.
func rtEDFBurst(seed int64) scenario.Spec {
	const horizon = 2000.0
	rng := rand.New(rand.NewSource(seed))
	jit := func(us float64) float64 { return us * (0.99 + 0.02*rng.Float64()) }
	periods := []float64{5, 10, 10, 20, 20, 25, 50, 50}
	var tasks []scenario.TaskSpec
	for n := 0; n < rtNodes; n++ {
		for i, p := range periods {
			// Each periodic task takes a tenth of the node.
			c := p * 1000 * 0.095
			t := scenario.TaskSpec{
				Name: fmt.Sprintf("n%dt%d", n, i), Node: n, Law: "periodic",
				PeriodMs: p, DeadlineMs: p, CBeforeUs: jit(c),
			}
			if i == 1 || i == 4 {
				// Two tasks per node share a resource under SRP.
				t.CBeforeUs = jit(c * 0.7)
				t.CSUs = jit(c * 0.3)
				t.Resource = fmt.Sprintf("R%d", n)
			}
			tasks = append(tasks, t)
		}
		tasks = append(tasks, scenario.TaskSpec{
			Name: fmt.Sprintf("%s%d", burstTask, n), Node: n, Law: "sporadic",
			PeriodMs: burstPeriodMs, DeadlineMs: 40, CBeforeUs: jit(burstWCETMs * 1000),
		})
	}
	tasks = append(tasks,
		scenario.TaskSpec{Name: "pipe3", Law: "periodic", PeriodMs: 20, DeadlineMs: 18,
			Stages: []scenario.StageSpec{
				{Name: "sample", Node: 0, WCETUs: jit(300)},
				{Name: "fuse", Node: 1, WCETUs: jit(400)},
				{Name: "act", Node: 2, WCETUs: jit(300)},
			}},
		scenario.TaskSpec{Name: "pipe2", Law: "periodic", PeriodMs: 10, DeadlineMs: 9,
			Stages: []scenario.StageSpec{
				{Name: "read", Node: 2, WCETUs: jit(200)},
				{Name: "write", Node: 0, WCETUs: jit(200)},
			}},
	)
	return scenario.Spec{
		Name: "rt-edf-burst", Nodes: rtNodes, Seed: seed, Costs: "default",
		Scheduler: "EDF", Policy: "SRP", HorizonMs: horizon, Tasks: tasks,
	}
}
