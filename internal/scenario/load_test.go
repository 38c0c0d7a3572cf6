package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// loadBase returns a fresh hot-shard builtin for a case to mutate.
func loadBase(t *testing.T) Spec {
	t.Helper()
	spec, err := Builtin("hot-shard")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadSpecValidation rejects malformed load blocks loudly and
// accepts well-formed ones.
func TestLoadSpecValidation(t *testing.T) {
	keys := []string{"alpha", "bravo", "charlie"}
	closed := func(name string, nodes ...int) LoadSpec {
		return LoadSpec{Name: name, Nodes: nodes, Sessions: 4, ThinkMs: 5, Keys: keys}
	}
	cases := []struct {
		name    string
		load    []LoadSpec
		wantErr string // "" = accepted
	}{
		{"unnamed", []LoadSpec{{Nodes: []int{7}, Sessions: 1, Keys: keys}}, "load 0 unnamed"},
		{"duplicate names", []LoadSpec{closed("g", 7), closed("g", 6)}, "duplicate load"},
		{"unknown mode", []LoadSpec{{Name: "g", Mode: "half-open", Nodes: []int{7}, Sessions: 1, Keys: keys}},
			"unknown mode"},
		{"unknown workload", []LoadSpec{{Name: "g", Workload: "scan", Nodes: []int{7}, Sessions: 1, Keys: keys}},
			"unknown workload"},
		{"no nodes", []LoadSpec{{Name: "g", Sessions: 1, Keys: keys}}, "names no client nodes"},
		{"unknown node", []LoadSpec{closed("g", 99)}, "unknown node"},
		{"replica node", []LoadSpec{closed("g", 0)}, "collides with a shard replica"},
		{"node twice", []LoadSpec{closed("g", 7, 7)}, "lists node 7 twice"},
		{"negative window", []LoadSpec{{Name: "g", Nodes: []int{7}, Sessions: 1, Keys: keys, StartMs: -1}},
			"negative window bound"},
		{"inverted window", []LoadSpec{{Name: "g", Nodes: []int{7}, Sessions: 1, Keys: keys,
			StartMs: 100, EndMs: 50}}, "empty submission window"},
		{"closed with arrival", []LoadSpec{{Name: "g", Nodes: []int{7}, Sessions: 1, Keys: keys,
			Arrival: 100}}, "rate is open-loop only"},
		{"open without rate", []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Keys: keys}},
			"positive rate or a ramp"},
		{"open with sessions", []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Arrival: 100,
			Sessions: 4, Keys: keys}}, "sessions are closed-loop only"},
		{"ramp not ascending", []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Keys: keys,
			Ramp: []RampStepSpec{{AtMs: 50, Rate: 10}, {AtMs: 50, Rate: 20}}}}, "strictly ascend"},
		{"shift without skew", []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7}, Arrival: 100,
			Keys: keys, HotspotShift: []HotspotShiftSpec{{AtMs: 50, Shift: 1}}}}, "without zipfSkew"},
		{"txn one key", []LoadSpec{{Name: "g", Workload: "txn", Nodes: []int{7}, Sessions: 1,
			Keys: []string{"alpha"}}}, "at least two keys"},
		{"no keys", []LoadSpec{{Name: "g", Nodes: []int{7}, Sessions: 1}}, "at least one key"},
		{"negative maxOps", []LoadSpec{{Name: "g", Nodes: []int{7}, Sessions: 1, Keys: keys,
			MaxOps: -5}}, "negative maxOps"},
		{"valid closed", []LoadSpec{closed("g", 7)}, ""},
		{"valid open with schedules", []LoadSpec{{Name: "g", Mode: "open", Nodes: []int{7},
			Arrival: 200, ZipfSkew: 1.1, Keys: keys,
			Ramp:         []RampStepSpec{{AtMs: 100, Rate: 800}},
			HotspotShift: []HotspotShiftSpec{{AtMs: 150, Shift: 1}}}}, ""},
		{"valid disabled", []LoadSpec{{Name: "g", Disabled: true, Nodes: []int{7}, Sessions: 1, Keys: keys}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := loadBase(t)
			spec.Shards.Load = tc.load
			_, err := spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid load block rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid load block accepted: %+v", tc.load)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestClientArrivalValidation covers the open-loop knobs on shard
// clients: arrival/ramp replace submitEveryMs, hotspot shifts need a
// skew and an open loop.
func TestClientArrivalValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*ShardClientSpec)
		wantErr string // "" = accepted
	}{
		{"mixed disciplines", func(cl *ShardClientSpec) {
			cl.Arrival = 100 // SubmitEveryMs stays set
		}, "mixes submitEveryMs with the open-loop arrival knobs"},
		{"shift on fixed schedule", func(cl *ShardClientSpec) {
			cl.HotspotShift = []HotspotShiftSpec{{AtMs: 100, Shift: 1}}
		}, "hotspotShift without an open-loop arrival"},
		{"negative arrival", func(cl *ShardClientSpec) {
			cl.SubmitEveryMs = 0
			cl.Arrival = -10
		}, "positive rate or a ramp"},
		{"ramp not ascending", func(cl *ShardClientSpec) {
			cl.SubmitEveryMs = 0
			cl.Ramp = []RampStepSpec{{AtMs: 100, Rate: 10}, {AtMs: 50, Rate: 20}}
		}, "strictly ascend"},
		{"shift without skew", func(cl *ShardClientSpec) {
			cl.SubmitEveryMs = 0
			cl.Arrival = 100
			cl.ZipfSkew = 0
			cl.HotspotShift = []HotspotShiftSpec{{AtMs: 100, Shift: 1}}
		}, "without zipfSkew"},
		{"valid open-loop client", func(cl *ShardClientSpec) {
			cl.SubmitEveryMs = 0
			cl.Arrival = 300
			cl.Ramp = []RampStepSpec{{AtMs: 200, Rate: 900}}
			cl.HotspotShift = []HotspotShiftSpec{{AtMs: 250, Shift: 2}}
		}, ""},
		{"valid ramp only", func(cl *ShardClientSpec) {
			cl.SubmitEveryMs = 0
			cl.Ramp = []RampStepSpec{{AtMs: 100, Rate: 400}}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := loadBase(t)
			tc.mutate(&spec.Shards.Clients[0])
			_, err := spec.withDefaults()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid client rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid client accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q missing %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadPlanePassive: a disabled load block attaches nothing — the
// run's monitor log is byte-identical to one with no load block at
// all (the passivity contract: describing load must not perturb the
// simulation).
func TestLoadPlanePassive(t *testing.T) {
	trace := func(spec Spec) []byte {
		t.Helper()
		spec, err := spec.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(spec.Horizon())
		var buf bytes.Buffer
		if err := sys.Log().WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := trace(loadBase(t))
	withDisabled := loadBase(t)
	withDisabled.Shards.Load = []LoadSpec{{
		Name: "ghost", Disabled: true, Nodes: []int{7},
		Sessions: 64, ThinkMs: 1,
		Keys: []string{"alpha", "bravo"},
	}}
	if got := trace(withDisabled); !bytes.Equal(plain, got) {
		t.Fatal("disabled load block changed the run's monitor log")
	}
}

// TestLoadRampRuns: the load-ramp builtin drives real traffic through
// both generators, the ramp's arrivals dominate, and the run's
// account reaches the Result.
func TestLoadRampRuns(t *testing.T) {
	spec, err := Builtin("load-ramp")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(spec.Horizon())
	res := sys.ResultNow()
	if len(res.Loads) != 2 {
		t.Fatalf("got %d load accounts, want 2", len(res.Loads))
	}
	for _, l := range res.Loads {
		if l.Offered == 0 {
			t.Fatalf("load %q offered nothing", l.Name)
		}
		if l.Acked == 0 {
			t.Fatalf("load %q acked nothing", l.Name)
		}
		if l.Acked > l.Offered {
			t.Fatalf("load %q acked %d > offered %d", l.Name, l.Acked, l.Offered)
		}
		if l.Capped {
			t.Fatalf("load %q hit its op cap", l.Name)
		}
	}
}

// TestLoadReportDeterministic: the same builtin and seed distill to a
// byte-identical report document — the property committed baselines
// rest on.
func TestLoadReportDeterministic(t *testing.T) {
	build := func() []byte {
		t.Helper()
		spec, err := Builtin("load-ramp")
		if err != nil {
			t.Fatal(err)
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(spec.Horizon())
		doc := sys.ReportNow(spec.Name)
		var buf bytes.Buffer
		if err := doc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different report documents")
	}
	if len(a) == 0 || !bytes.Contains(a, []byte(`"throughput"`)) {
		t.Fatalf("report document malformed:\n%s", a)
	}
	// The per-interval series must be present: the metrics plane
	// scrapes the generators' offered/acked counters by default.
	if !bytes.Contains(a, []byte(`"series"`)) {
		t.Fatalf("report missing the throughput series:\n%s", a)
	}
}
