package scenario

import (
	"bytes"
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/monitor"
	"hades/internal/pubsub"
	"hades/internal/trace"
)

// pubsubBase returns a fresh sensor-fan-out builtin for a case to
// mutate.
func pubsubBase(t *testing.T) Spec {
	t.Helper()
	spec, err := Builtin("sensor-fan-out")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPubSubSpecValidation rejects malformed pubsub blocks loudly —
// QoS contract violations, endpoints on undeclared topics or unknown
// nodes, colliding generator names — and accepts the builtin.
func TestPubSubSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // "" = accepted
	}{
		{"builtin valid", func(s *Spec) {}, ""},
		{"requires shards", func(s *Spec) { s.Shards = nil },
			"requires a shards block"},
		{"no topics", func(s *Spec) { s.PubSub.Topics = nil },
			"declares no topics"},
		{"unnamed topic", func(s *Spec) {
			s.PubSub.Topics = append(s.PubSub.Topics, TopicSpec{})
		}, "unnamed"},
		{"duplicate topic", func(s *Spec) {
			s.PubSub.Topics = append(s.PubSub.Topics, s.PubSub.Topics[0])
		}, "duplicate pubsub topic"},
		{"unknown reliability", func(s *Spec) {
			s.PubSub.Topics[1].Reliability = "exactly-once"
		}, "unknown reliability"},
		{"negative deadline", func(s *Spec) {
			s.PubSub.Topics[0].DeadlineMs = -5
		}, "negative deadline"},
		{"durable zero history", func(s *Spec) {
			s.PubSub.Topics[0].HistoryDepth = 0
		}, "needs historyDepth >= 1"},
		{"history without durable", func(s *Spec) {
			s.PubSub.Topics[0].Durable = false
		}, "without durable"},
		{"durable best-effort", func(s *Spec) {
			s.PubSub.Topics[0].Reliability = "bestEffort"
		}, "needs reliable delivery"},
		{"publisher undeclared topic", func(s *Spec) {
			s.PubSub.Publishers[0].Topic = "ghost"
		}, "undeclared topic \"ghost\""},
		{"publisher unknown node", func(s *Spec) {
			s.PubSub.Publishers[0].Node = 99
		}, "unknown node 99"},
		{"publisher zero interval", func(s *Spec) {
			s.PubSub.Publishers[0].SubmitEveryMs = 0
		}, "positive submitEveryMs"},
		{"publisher negative count", func(s *Spec) {
			s.PubSub.Publishers[0].Count = -1
		}, "negative count"},
		{"subscriber undeclared topic", func(s *Spec) {
			s.PubSub.Subscribers[0].Topic = "ghost"
		}, "undeclared topic \"ghost\""},
		{"subscriber unknown node", func(s *Spec) {
			s.PubSub.Subscribers[0].Node = -2
		}, "unknown node -2"},
		{"duplicate subscriber", func(s *Spec) {
			s.PubSub.Subscribers = append(s.PubSub.Subscribers, s.PubSub.Subscribers[0])
		}, "two pubsub subscribers"},
		{"negative join", func(s *Spec) {
			s.PubSub.Subscribers[0].JoinAtMs = -10
		}, "negative instant"},
		{"join past horizon", func(s *Spec) {
			s.PubSub.Subscribers[0].JoinAtMs = s.HorizonMs + 1
		}, "past the"},
		{"load undeclared topic", func(s *Spec) {
			s.PubSub.Load[0].Keys = []string{"ghost"}
		}, "undeclared topic \"ghost\""},
		{"load kv workload", func(s *Spec) {
			s.PubSub.Load[0].Workload = "kv"
		}, "always publishes"},
		{"load name collides across blocks", func(s *Spec) {
			s.Shards.Load = []LoadSpec{{Name: "storm", Nodes: []int{6},
				Sessions: 1, Keys: []string{"alpha"}}}
		}, "duplicate load \"storm\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := pubsubBase(t)
			tc.mutate(&spec)
			_, err := spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid pubsub block rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid pubsub block accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestGroupLoadValidation covers the group-attached generator rules: a
// replication style is required, only the kv shape applies, and node
// lists are rejected (submission is always at the current primary).
func TestGroupLoadValidation(t *testing.T) {
	base := func(t *testing.T) Spec {
		t.Helper()
		spec, err := Builtin("membership-churn")
		if err != nil {
			t.Fatal(err)
		}
		spec.Groups = append([]GroupSpec(nil), spec.Groups...)
		return spec
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"valid keyless", func(s *Spec) {
			s.Groups[0].Load = []LoadSpec{{Name: "g", Sessions: 4, ThinkMs: 2}}
		}, ""},
		{"no style", func(s *Spec) {
			s.Groups[0].Style = ""
			s.Groups[0].SubmitEveryMs = 0
			s.Groups[0].Load = []LoadSpec{{Name: "g", Sessions: 4, ThinkMs: 2}}
		}, "no replication style"},
		{"txn workload", func(s *Spec) {
			s.Groups[0].Load = []LoadSpec{{Name: "g", Workload: "txn", Sessions: 4, ThinkMs: 2,
				Keys: []string{"a", "b"}}}
		}, "only serves kv commands"},
		{"nodes rejected", func(s *Spec) {
			s.Groups[0].Load = []LoadSpec{{Name: "g", Nodes: []int{3}, Sessions: 4, ThinkMs: 2}}
		}, "drop the nodes field"},
		{"duplicate name", func(s *Spec) {
			s.Groups[0].Load = []LoadSpec{
				{Name: "g", Sessions: 4, ThinkMs: 2},
				{Name: "g", Sessions: 2, ThinkMs: 2},
			}
		}, "duplicate load \"g\""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base(t)
			tc.mutate(&spec)
			_, err := spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid group load rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid group load accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestGroupLoadRuns: a generator attached to a plain replication group
// (no sharded plane) drives real commands through the primary and its
// account — with per-generator latency — reaches the Result.
func TestGroupLoadRuns(t *testing.T) {
	spec, err := Builtin("membership-churn")
	if err != nil {
		t.Fatal(err)
	}
	spec.Groups = append([]GroupSpec(nil), spec.Groups...)
	spec.Groups[0].Load = []LoadSpec{{Name: "churn-load", Sessions: 8, ThinkMs: 2}}
	spec, err = spec.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(spec.Horizon())
	res := sys.ResultNow()
	if len(res.Loads) != 1 {
		t.Fatalf("got %d load accounts, want 1", len(res.Loads))
	}
	l := res.Loads[0]
	if l.Name != "churn-load" || l.Offered == 0 || l.Acked == 0 {
		t.Fatalf("group load account empty: %+v", l)
	}
	if l.Latency.Count == 0 || l.Latency.P50 <= 0 || l.Latency.Max < l.Latency.P50 {
		t.Fatalf("group load latency attribution missing: %+v", l.Latency)
	}
}

// runSensorFanOut builds and runs the builtin at the given seed and
// returns the cluster plus its (single) pub/sub plane.
func runSensorFanOut(t *testing.T, seed int64) (*cluster.Cluster, *pubsub.Plane) {
	t.Helper()
	spec, err := Builtin("sensor-fan-out")
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	clu.Run(spec.Horizon())
	sets := clu.ShardSets()
	if len(sets) != 1 {
		t.Fatalf("got %d shard sets, want 1", len(sets))
	}
	p := sets[0].PubSubPlane()
	if p == nil {
		t.Fatal("sensor-fan-out declared a pubsub block but no plane exists")
	}
	return clu, p
}

// TestSensorFanOutSeeds asserts the builtin's QoS contracts across
// seeds: exactly-once delivery of every reliable durable sample under
// the primary crash, best-effort delivery to every live subscriber
// without blocking, late-joiner convergence to the retained history,
// and every deadline miss surfaced as a monitor violation.
func TestSensorFanOutSeeds(t *testing.T) {
	missSomewhere := false
	for seed := int64(1); seed <= 5; seed++ {
		clu, p := runSensorFanOut(t, seed)
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.CheckComplete("telemetry"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tele, sens pubsub.TopicStats
		for _, st := range p.Stats() {
			switch st.Name {
			case "telemetry":
				tele = st
			case "sensors":
				sens = st
			}
		}
		if tele.Published != 300 || tele.Acked != 300 {
			t.Fatalf("seed %d: telemetry published=%d acked=%d, want 300/300", seed, tele.Published, tele.Acked)
		}
		if tele.Dropped != 0 {
			t.Fatalf("seed %d: telemetry dropped %d samples with no subscriber crash", seed, tele.Dropped)
		}
		if tele.HistoryLen != 8 {
			t.Fatalf("seed %d: durable history holds %d samples, want depth 8", seed, tele.HistoryLen)
		}
		// Every from-start subscriber saw all 300 samples exactly once;
		// the late joiner converged to exactly the retained 8.
		for _, sub := range p.Subscribers("telemetry") {
			want := 300
			if sub.JoinTime() > 0 {
				want = 8
			}
			if got := len(sub.Deliveries()); got != want {
				t.Fatalf("seed %d: telemetry sub n%d delivered %d, want %d", seed, sub.Node(), got, want)
			}
		}
		// Best-effort never blocks: every publish acked at its bounded
		// broadcast instant, and with no live-subscriber failure every
		// subscriber saw the full stream.
		if sens.Published == 0 || sens.Acked != sens.Published {
			t.Fatalf("seed %d: sensors published=%d acked=%d (best-effort publish must not block)", seed, sens.Published, sens.Acked)
		}
		for _, sub := range p.Subscribers("sensors") {
			if got := len(sub.Deliveries()); got != sens.Published {
				t.Fatalf("seed %d: sensors sub n%d delivered %d of %d", seed, sub.Node(), got, sens.Published)
			}
		}
		// Deadline misses surface 1:1 as monitor violations.
		misses := 0
		for _, ev := range clu.Log().Events() {
			if ev.Kind == monitor.KindDeadlineMiss && ev.Subject == "pubsub.telemetry" {
				misses++
			}
		}
		if misses != tele.DeadlineMiss {
			t.Fatalf("seed %d: %d deadline misses counted, %d monitor events", seed, tele.DeadlineMiss, misses)
		}
		if misses > 0 {
			missSomewhere = true
		}
	}
	if !missSomewhere {
		t.Fatal("no seed produced a deadline miss — the failover window no longer exercises the deadline QoS")
	}
}

// TestSensorFanOutDeterministic: the same seed reproduces the run
// byte-for-byte — delivery order, monitor log and exported trace.
func TestSensorFanOutDeterministic(t *testing.T) {
	run := func() (string, []byte, []byte) {
		spec, err := Builtin("sensor-fan-out")
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Run(spec.Horizon())
		p := clu.ShardSets()[0].PubSubPlane()
		var log bytes.Buffer
		if err := clu.Log().WriteTrace(&log); err != nil {
			t.Fatal(err)
		}
		var tr bytes.Buffer
		if err := trace.WriteChrome(&tr, clu.Tracer().Retained()); err != nil {
			t.Fatal(err)
		}
		return p.DeliveryLog(), log.Bytes(), tr.Bytes()
	}
	d1, l1, t1 := run()
	d2, l2, t2 := run()
	if d1 != d2 {
		t.Fatal("same seed produced different delivery orders")
	}
	if !bytes.Equal(l1, l2) {
		t.Fatal("same seed produced different monitor logs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same seed produced different trace exports")
	}
	if !strings.Contains(d1, "replay") {
		t.Fatal("delivery log records no history replay (late joiner never caught up)")
	}
}

// TestPubSubPassive: a scenario with no pubsub block creates no plane,
// no pubsub metric series and no pubsub monitor events — describing
// the rest of the system is unaffected by the plane existing in the
// codebase.
func TestPubSubPassive(t *testing.T) {
	spec, err := Builtin("hot-shard")
	if err != nil {
		t.Fatal(err)
	}
	clu, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	clu.Run(spec.Horizon())
	for _, set := range clu.ShardSets() {
		if set.PubSubPlane() != nil {
			t.Fatal("run without a pubsub block grew a pubsub plane")
		}
		if err := set.CheckPubSub(); err != nil {
			t.Fatalf("CheckPubSub on a plane-less set: %v", err)
		}
	}
	for _, s := range clu.Metrics().Export().Series {
		if strings.HasPrefix(s.Name, "pubsub.") {
			t.Fatalf("run without a pubsub block scraped series %q", s.Name)
		}
	}
	for _, ev := range clu.Log().Events() {
		switch ev.Kind {
		case monitor.KindSampleDrop, monitor.KindCatchUp:
			t.Fatalf("run without a pubsub block logged %s", ev.Kind)
		}
	}
}

// TestLateJoinerThroughPartitionMerge: the durable history survives a
// partition of the owning primary, a mid-partition late joiner catches
// up from the promoted primary, and the merge view triggers a history
// replay — every reliable sample still lands exactly once everywhere.
func TestLateJoinerThroughPartitionMerge(t *testing.T) {
	base := Spec{
		Name: "merge-replay", Nodes: 6, Costs: "default",
		Scheduler: "EDF", Policy: "none", HorizonMs: 500,
		Observe: &ObserveSpec{TraceSampleRate: fptr(1.0), RetainViolations: true},
		Shards: &ShardsSpec{
			Count: 1, ReplicasPer: 3, Style: "semi-active",
			Routes: map[string]int{"t": 0},
		},
		PubSub: &PubSubSpec{
			Topics: []TopicSpec{
				{Name: "t", Durable: true, HistoryDepth: 4},
			},
			Publishers: []PublisherSpec{
				{Topic: "t", Node: 3, SubmitEveryMs: 5, Count: 60},
			},
			Subscribers: []SubscriberSpec{
				{Topic: "t", Node: 4},
				{Topic: "t", Node: 5, JoinAtMs: 150},
			},
		},
		Faults: []FaultSpec{
			// The owning primary is segmented off alone mid-publish; the
			// majority promotes a replacement, and the heal readmits it
			// through a merge view that replays the history.
			{Kind: "partition", Partition: [][]int{{0}, {1, 2, 3, 4, 5}}, AtMs: 100, HealMs: 250},
		},
		Tasks: []TaskSpec{
			{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
				Stages: []StageSpec{{Name: "check", Node: 4, WCETUs: 300}}},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		spec := base
		spec.Seed = seed
		spec, err := spec.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		clu, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		clu.Run(spec.Horizon())
		p := clu.ShardSets()[0].PubSubPlane()
		if err := p.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := p.CheckComplete("t"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		catchups := 0
		for _, ev := range clu.Log().Events() {
			if ev.Kind == monitor.KindCatchUp {
				catchups++
			}
		}
		if catchups == 0 {
			t.Fatalf("seed %d: no CatchUp events — neither the late joiner nor the merge replayed history", seed)
		}
		for _, sub := range p.Subscribers("t") {
			if sub.JoinTime() == 0 {
				if got := len(sub.Deliveries()); got != 60 {
					t.Fatalf("seed %d: from-start sub delivered %d of 60", seed, got)
				}
			}
		}
	}
}
