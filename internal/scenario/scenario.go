// Package scenario defines the JSON scenario format shared by the
// hades-sim and hades-feas command-line tools: a §5.1-style task set
// plus platform, topology, placement, fault-injection and policy
// choices, loadable from a file or from the built-in catalogue.
//
// A scenario builds onto the cluster runtime layer, so distributed and
// faulty workloads are data, not code: "nodes" sizes the platform,
// "links" declares bounded-delay point-to-point links (omit for a full
// mesh), "placement" pins tasks or stages to nodes, "faults" schedules
// deterministic omission/delay/crash(/recover) injection, "groups"
// declares view-synchronous membership groups with optional replicated
// state machines and a request driver, and "shards" declares a sharded
// data plane (consistent-hash routing over replication groups with
// retrying/redirecting clients, plus "txns" transaction clients
// driving deadline-carrying cross-shard atomic transfers) — the
// crash/partition/rejoin workloads of the membership-churn,
// partition-split, sharded-kv and bank-transfer builtins are pure
// data.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/feasibility"
	"hades/internal/heug"
	"hades/internal/load"
	"hades/internal/metrics"
	"hades/internal/replication"
	"hades/internal/sched"
	"hades/internal/session"
	"hades/internal/shard"
	"hades/internal/txn"
	"hades/internal/vtime"
)

// StageSpec is one Code_EU of a multi-stage (pipeline) task. Stages
// form a chain in declaration order; consecutive stages on different
// nodes cross the network as remote precedence constraints.
type StageSpec struct {
	Name   string  `json:"name"`
	Node   int     `json:"node"`
	WCETUs float64 `json:"wcetUs"`
}

// TaskSpec describes one task in the JSON scenario: either a §5.1
// Spuri task (CBefore/CS/CAfter, single node) or a staged pipeline
// (Stages, possibly spanning nodes). The two forms are exclusive.
type TaskSpec struct {
	Name      string  `json:"name"`
	Node      int     `json:"node"`
	CBeforeUs float64 `json:"cBeforeUs"`
	CSUs      float64 `json:"csUs"`
	CAfterUs  float64 `json:"cAfterUs"`
	Resource  string  `json:"resource,omitempty"`
	// DeadlineMs is the relative deadline D.
	DeadlineMs float64 `json:"deadlineMs"`
	// PeriodMs is the period (periodic) or pseudo-period (sporadic).
	PeriodMs float64 `json:"periodMs"`
	// Law is "sporadic" (default) or "periodic".
	Law string `json:"law,omitempty"`
	// Stages, when present, makes the task a pipeline of Code_EUs
	// chained in order (a distributed task when nodes differ).
	Stages []StageSpec `json:"stages,omitempty"`
}

// LinkSpec declares one bidirectional link with delay bounds
// [dMin, dMax] — the synchrony assumption of the §2.1 system model.
type LinkSpec struct {
	A      int     `json:"a"`
	B      int     `json:"b"`
	DMinUs float64 `json:"dMinUs"`
	DMaxUs float64 `json:"dMaxUs"`
}

// FaultSpec schedules one deterministic fault injection:
//
//   - "drop-every": drop every K-th message on Port (omission);
//   - "drop-from": drop all messages Node sends on Port (a fully
//     send-omission-faulty process);
//   - "random": drop/delay with the given probabilities from the
//     seeded source;
//   - "crash": node crash at AtMs, recovering at RecoverMs (0 = never);
//   - "partition": split the declared nodes into Partition sides at
//     AtMs (cross-side traffic drops, in-flight included), healing at
//     HealMs (0 = never). Nodes in no side keep full connectivity.
type FaultSpec struct {
	Kind       string  `json:"kind"`
	Node       int     `json:"node,omitempty"`
	K          int     `json:"k,omitempty"`
	Port       string  `json:"port,omitempty"`
	AtMs       float64 `json:"atMs,omitempty"`
	RecoverMs  float64 `json:"recoverMs,omitempty"`
	HealMs     float64 `json:"healMs,omitempty"`
	Partition  [][]int `json:"partition,omitempty"`
	DropProb   float64 `json:"dropProb,omitempty"`
	DelayProb  float64 `json:"delayProb,omitempty"`
	MaxExtraUs float64 `json:"maxExtraUs,omitempty"`
}

// GroupSpec declares one view-synchronous membership group, optionally
// carrying a replicated state machine driven with periodic requests:
//
//   - Nodes is the member universe watched by the group's detector;
//   - Style ("passive", "semi-active", "active"), when set, attaches a
//     replica group whose failover follows the installed views;
//   - Replicas defaults to Nodes (promotion order = declaration order);
//   - SubmitEveryMs, when positive, submits one request every interval
//     from node SubmitFrom for the whole horizon.
type GroupSpec struct {
	Name             string  `json:"name"`
	Nodes            []int   `json:"nodes"`
	Style            string  `json:"style,omitempty"`
	Replicas         []int   `json:"replicas,omitempty"`
	CheckpointEvery  int     `json:"checkpointEvery,omitempty"`
	WExecUs          float64 `json:"wExecUs,omitempty"`
	StorageLatencyUs float64 `json:"storageLatencyUs,omitempty"`
	SubmitEveryMs    float64 `json:"submitEveryMs,omitempty"`
	SubmitFrom       int     `json:"submitFrom,omitempty"`
	// Load attaches declarative generators straight to the group's
	// replicated machine (kv shape only: submissions go to the current
	// primary, an op completes at its first fresh apply) — the load
	// harness without a sharded data plane. Requires a Style.
	Load []LoadSpec `json:"load,omitempty"`
}

// RampStepSpec changes an open-loop arrival rate at an instant: from
// AtMs on, arrivals come at Rate ops/sec (until the next step).
// Instants must strictly ascend; a zero Rate is a plateau with no
// arrivals until the next step.
type RampStepSpec struct {
	AtMs float64 `json:"atMs"`
	Rate float64 `json:"rate"`
}

// HotspotShiftSpec rotates a zipf-ranked keyspace at an instant: from
// AtMs on, the key at declaration rank r serves rank (r+Shift) mod
// len(keys) — the hot key moves mid-run, the signal hot-shard
// detection must chase. Instants must strictly ascend.
type HotspotShiftSpec struct {
	AtMs  float64 `json:"atMs"`
	Shift int     `json:"shift"`
}

// ShardClientSpec declares one request client of a sharded data
// plane: a keyed workload submitted round-robin over Keys, one
// request every SubmitEveryMs for the whole horizon — or, when
// Arrival or Ramp is set, on an open-loop Poisson schedule.
type ShardClientSpec struct {
	Node int      `json:"node"`
	Keys []string `json:"keys"`
	// SubmitEveryMs is the fixed submission interval. Mutually
	// exclusive with the open-loop knobs below.
	SubmitEveryMs float64 `json:"submitEveryMs"`
	// Count replicates this client on Count consecutive nodes starting
	// at Node (0 and 1 both mean a single client) — scaling the
	// workload is a knob, not a copy-pasted spec block.
	Count int `json:"count,omitempty"`
	// ZipfSkew switches the key choice from round-robin to a Zipf
	// distribution with this exponent over Keys (rank = declaration
	// order: the first key is the hottest). Keys are drawn at build
	// time from a source seeded by the scenario seed and the client
	// node, so the skewed workload is part of the run description —
	// deterministic, and the metrics plane's hot-shard detector has
	// real data to find. 0 keeps the round-robin default.
	ZipfSkew float64 `json:"zipfSkew,omitempty"`
	// Policy is "queue" (default: park exhausted requests, resubmit
	// after a view change or heal) or "fail-fast".
	Policy string `json:"policy,omitempty"`
	// RetryTimeoutMs and MaxRetries override the client defaults.
	RetryTimeoutMs float64 `json:"retryTimeoutMs,omitempty"`
	MaxRetries     int     `json:"maxRetries,omitempty"`
	// Arrival switches the client to the open-loop discipline: instead
	// of one request every SubmitEveryMs, requests arrive on a Poisson
	// schedule at Arrival ops/sec (exponential inter-arrivals on the
	// virtual clock, drawn at build time from a seed derived from the
	// scenario seed and the node — the engine's random stream is never
	// touched). Mutually exclusive with SubmitEveryMs.
	Arrival float64 `json:"arrival,omitempty"`
	// Ramp schedules open-loop arrival-rate changes; setting a ramp
	// (with or without Arrival) selects the open-loop discipline.
	Ramp []RampStepSpec `json:"ramp,omitempty"`
	// HotspotShift rotates the zipf rank→key mapping mid-run. Requires
	// ZipfSkew and the open-loop discipline (a fixed schedule's picker
	// has no notion of time).
	HotspotShift []HotspotShiftSpec `json:"hotspotShift,omitempty"`
}

// openLoop reports whether the client runs the open-loop discipline.
func (cs ShardClientSpec) openLoop() bool {
	return cs.Arrival != 0 || len(cs.Ramp) > 0
}

// loadConfig lowers an open-loop shard client to the load-plane
// configuration that drives one node's client.
func (cs ShardClientSpec) loadConfig(seed int64, node int, horizon vtime.Duration) load.Config {
	cfg := load.Config{
		Name:     fmt.Sprintf("client-n%d", node),
		Mode:     load.Open,
		Rate:     cs.Arrival,
		Keys:     cs.Keys,
		ZipfSkew: cs.ZipfSkew,
		Seed:     seed*1000003 + int64(node),
		End:      vtime.Time(horizon),
	}
	for _, st := range cs.Ramp {
		cfg.Ramp = append(cfg.Ramp, load.RampStep{At: vtime.Time(msd(st.AtMs)), Rate: st.Rate})
	}
	for _, hs := range cs.HotspotShift {
		cfg.HotspotShift = append(cfg.HotspotShift, load.HotspotShift{At: vtime.Time(msd(hs.AtMs)), Shift: hs.Shift})
	}
	return cfg
}

// nodes expands the Count knob to the concrete node list the spec
// places clients on: Count consecutive nodes starting at Node.
func (cs ShardClientSpec) nodes() []int {
	n := cs.Count
	if n < 1 {
		n = 1
	}
	out := make([]int, n)
	for i := range out {
		out[i] = cs.Node + i
	}
	return out
}

// picker returns the key choice for the client's i-th submission.
// With ZipfSkew zero it is the round-robin default; otherwise keys are
// drawn from a Zipf distribution over Keys (declaration order = rank,
// so the first key is the hottest) by inverse-CDF over a local source
// seeded from the scenario seed and the client node. The draw happens
// at build time, while the submission schedule is being laid out, so
// it never touches the engine's random stream.
func (cs ShardClientSpec) picker(seed int64, node int) func(i int) string {
	keys := cs.Keys
	if cs.ZipfSkew == 0 || len(keys) < 2 {
		return func(i int) string { return keys[i%len(keys)] }
	}
	weights := make([]float64, len(keys))
	total := 0.0
	for i := range keys {
		weights[i] = 1 / math.Pow(float64(i+1), cs.ZipfSkew)
		total += weights[i]
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(node)))
	return func(int) string {
		u := rng.Float64() * total
		for i, w := range weights {
			u -= w
			if u < 0 {
				return keys[i]
			}
		}
		return keys[len(keys)-1]
	}
}

// TxnClientSpec declares one transaction client of a sharded data
// plane: a bank-transfer workload — every SubmitEveryMs one two-key
// atomic transfer (read both accounts, debit one, credit the other)
// rotating over consecutive Accounts pairs, each transaction carrying
// a relative virtual-time deadline.
type TxnClientSpec struct {
	Node int `json:"node"`
	// Accounts is the keyed account set (at least 2).
	Accounts []string `json:"accounts"`
	// SubmitEveryMs is the submission interval.
	SubmitEveryMs float64 `json:"submitEveryMs"`
	// DeadlineMs is the relative transaction deadline (0 selects the
	// client default): a transaction not committed by its deadline
	// deterministically aborts and releases its locks.
	DeadlineMs float64 `json:"deadlineMs,omitempty"`
	// RetryTimeoutMs and MaxRetries override the submission retry
	// discipline.
	RetryTimeoutMs float64 `json:"retryTimeoutMs,omitempty"`
	MaxRetries     int     `json:"maxRetries,omitempty"`
}

// SessionSpec tunes the data plane's session throughput knobs: op
// batching (per-shard coalescing of client submissions into one wire
// message and one replicated round) and pipelining (several batches in
// flight per shard). On a plane with transaction clients the same
// knobs batch the coordinators' decision log (group commit). All
// three fields are required and must be positive — a partial or
// zeroed block is rejected loudly rather than silently defaulted.
type SessionSpec struct {
	// MaxBatch caps the ops coalesced into one submission (1 = the
	// unbatched legacy discipline).
	MaxBatch int `json:"maxBatch"`
	// FlushIntervalMs bounds how long a partial batch may wait before
	// it is flushed anyway (virtual time).
	FlushIntervalMs float64 `json:"flushIntervalMs"`
	// PipelineDepth caps the batches in flight per shard (1 = stop
	// and wait; the decision log ignores it — decisions complete
	// through the replicated apply stream).
	PipelineDepth int `json:"pipelineDepth"`
}

// ShardsSpec declares a sharded data plane: Count replication groups
// behind a deterministic consistent-hash ring, plus the clients that
// drive it. Each shard is one view-synchronous membership group
// carrying one replicated state machine.
type ShardsSpec struct {
	// Count is the number of shards (>= 1 — zero shards is an error).
	Count int `json:"count"`
	// ReplicasPer sizes each shard's replica set under the consecutive
	// default layout (shard i owns nodes [i·ReplicasPer,(i+1)·ReplicasPer)).
	ReplicasPer int `json:"replicasPer,omitempty"`
	// Groups pins the replica node sets explicitly (len must equal
	// Count; sets must be disjoint — overlapping membership is an error).
	Groups [][]int `json:"groups,omitempty"`
	// Style is "semi-active" (default) or "passive"; "active" has no
	// primary to route to and is rejected.
	Style string `json:"style,omitempty"`
	// VNodes is the ring's virtual-node count per shard (0 = default).
	VNodes int `json:"vnodes,omitempty"`
	// Routes pins keys to shard indices, bypassing the hash; a route
	// to an index outside [0, Count) is an error.
	Routes map[string]int `json:"routes,omitempty"`
	// WExecUs, CheckpointEvery, StorageLatencyUs configure the replicas.
	WExecUs          float64 `json:"wExecUs,omitempty"`
	CheckpointEvery  int     `json:"checkpointEvery,omitempty"`
	StorageLatencyUs float64 `json:"storageLatencyUs,omitempty"`
	// Session, when present, turns on op batching/pipelining for the
	// plane's clients and group commit for its transaction
	// coordinators; omitted means the unbatched legacy discipline. It
	// is rejected on a spec with neither clients nor txns.
	Session *SessionSpec `json:"session,omitempty"`
	// Clients drive the keyed workload.
	Clients []ShardClientSpec `json:"clients,omitempty"`
	// Txns drive a cross-shard atomic-transfer workload (two-phase
	// commit over the shard groups with per-transaction deadlines).
	Txns []TxnClientSpec `json:"txns,omitempty"`
	// Load attaches declarative load generators (open/closed-loop
	// session populations multiplexed over the plane's clients).
	Load []LoadSpec `json:"load,omitempty"`
}

// LoadSpec declares one load generator attached to the sharded data
// plane: a population of simulated client sessions multiplexed
// round-robin over the clients on Nodes (a node with a declared
// client reuses it; one without gets a default client — a transaction
// client for txn workloads). Closed-loop sessions submit, wait for
// the ack, think, and go again; open-loop arrivals come on a
// precomputed Poisson schedule regardless of completions. All
// randomness is drawn from seeds derived from the scenario seed — the
// engine's stream is never touched, so the load plane is behaviorally
// passive: a run with a Disabled generator is identical to one with
// no load block at all.
type LoadSpec struct {
	// Name labels the generator in reports and metric series
	// (load.<name>.offered / load.<name>.acked); names must be unique.
	Name string `json:"name"`
	// Workload is "kv" (single-key writes, the default) or "txn"
	// (two-key atomic transfers between consecutive key pairs). Loads
	// declared in a pubsub block implicitly publish ("pubsub", with
	// Keys naming the target topics).
	Workload string `json:"workload,omitempty"`
	// Mode is "closed" (Sessions submit→ack→think loops, the default)
	// or "open" (Poisson arrivals at Arrival ops/sec).
	Mode string `json:"mode,omitempty"`
	// Nodes lists the client nodes the workload multiplexes over.
	Nodes []int `json:"nodes"`
	// Sessions and ThinkMs parameterise the closed loop: Sessions
	// concurrent sessions, each thinking a uniform draw from
	// [ThinkMs/2, 3·ThinkMs/2] between an ack and the next submission.
	Sessions int     `json:"sessions,omitempty"`
	ThinkMs  float64 `json:"thinkMs,omitempty"`
	// Arrival and Ramp parameterise the open loop (ops/sec).
	Arrival float64        `json:"arrival,omitempty"`
	Ramp    []RampStepSpec `json:"ramp,omitempty"`
	// Keys is the keyspace; declaration order = zipf rank (first key
	// hottest).
	Keys []string `json:"keys"`
	// ZipfSkew skews the key choice; HotspotShift rotates the ranking
	// mid-run (requires a skew).
	ZipfSkew     float64            `json:"zipfSkew,omitempty"`
	HotspotShift []HotspotShiftSpec `json:"hotspotShift,omitempty"`
	// StartMs and EndMs bound the submission window (EndMs 0 = the
	// horizon).
	StartMs float64 `json:"startMs,omitempty"`
	EndMs   float64 `json:"endMs,omitempty"`
	// MaxOps caps total submissions (0 = the generator default).
	MaxOps int `json:"maxOps,omitempty"`
	// Disabled keeps the block in the file but attaches nothing.
	Disabled bool `json:"disabled,omitempty"`
}

// config lowers the spec to the load-plane configuration. The horizon
// bounds the default submission window; the seed (already derived per
// generator) feeds the generator's local random sources.
func (ls LoadSpec) config(seed int64, horizon vtime.Duration) load.Config {
	end := vtime.Time(horizon)
	if ls.EndMs > 0 {
		end = vtime.Time(msd(ls.EndMs))
	}
	cfg := load.Config{
		Name:     ls.Name,
		Sessions: ls.Sessions,
		Think:    msd(ls.ThinkMs),
		Rate:     ls.Arrival,
		Keys:     ls.Keys,
		ZipfSkew: ls.ZipfSkew,
		Seed:     seed,
		Start:    vtime.Time(msd(ls.StartMs)),
		End:      end,
		MaxOps:   ls.MaxOps,
	}
	if ls.Mode == "open" {
		cfg.Mode = load.Open
	}
	if ls.Workload == "txn" {
		cfg.Workload = load.Txn
	}
	if ls.Workload == "pubsub" {
		cfg.Workload = load.Pub
	}
	for _, st := range ls.Ramp {
		cfg.Ramp = append(cfg.Ramp, load.RampStep{At: vtime.Time(msd(st.AtMs)), Rate: st.Rate})
	}
	for _, hs := range ls.HotspotShift {
		cfg.HotspotShift = append(cfg.HotspotShift, load.HotspotShift{At: vtime.Time(msd(hs.AtMs)), Shift: hs.Shift})
	}
	return cfg
}

// loadSeed derives generator i's seed from the scenario seed — a
// distinct stream per generator, disjoint from the client pickers'.
func loadSeed(seed int64, i int) int64 {
	return seed*1000003 + int64(i+1)*104729
}

// ObserveSpec tunes the run's observability plane: causal-trace
// sampling and the monitor event-log retention policy. All fields are
// optional; a malformed value is rejected loudly rather than clamped.
type ObserveSpec struct {
	// TraceSampleRate is the fraction of finished traces retained with
	// full span trees, within [0,1] (violating traces — deadline
	// misses, aborts, omission-hit ops — are always retained
	// regardless). Omitted selects the cluster default (0.1); the
	// builtins pin 1.0 so every exported run is fully walkable.
	// Percentile aggregation observes every trace whatever the rate.
	TraceSampleRate *float64 `json:"traceSampleRate,omitempty"`
	// LogLimit bounds the monitor event log (must be positive; omitted
	// selects the cluster default).
	LogLimit *int `json:"logLimit,omitempty"`
	// RetainViolations switches the log to ring mode: the most recent
	// LogLimit events are kept instead of the first, and violation
	// events are never dropped however far the ring churns.
	RetainViolations bool `json:"retainViolations,omitempty"`
	// Metrics tunes the virtual-time metrics plane (omitted keeps the
	// plane on with its defaults).
	Metrics *MetricsSpec `json:"metrics,omitempty"`
}

// MetricsSpec tunes the metrics plane from the scenario file: the
// scrape interval, the series ring capacity, the key-hotness sketch
// width and the declarative SLO rules. Malformed values are rejected
// loudly at load time rather than clamped.
type MetricsSpec struct {
	// IntervalMs is the virtual-time scrape period (omitted or 0
	// selects the 5ms default).
	IntervalMs float64 `json:"intervalMs,omitempty"`
	// Capacity bounds each series' ring buffer (0 = default 256).
	Capacity int `json:"capacity,omitempty"`
	// TopK bounds the key-hotness sketch (0 = default 16).
	TopK int `json:"topK,omitempty"`
	// Disabled turns the plane off entirely (no instruments, no
	// scrapes, no export).
	Disabled bool `json:"disabled,omitempty"`
	// SLO declares the threshold rules evaluated each interval.
	SLO []SLORuleSpec `json:"slo,omitempty"`
}

// SLORuleSpec is one declarative SLO rule: "stat(metric) op threshold",
// breached after ForIntervals consecutive violating scrape intervals.
// Exactly one of Threshold (raw series units) and ThresholdMs
// (milliseconds, for the nanosecond latency histograms) may be set.
type SLORuleSpec struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	// Stat is "value" (counters/gauges; the default), "count", "p50",
	// "p99" or "max" (histograms).
	Stat string `json:"stat,omitempty"`
	// Op is "<=", "<", ">=" or ">": the comparison that should HOLD.
	Op string `json:"op"`
	// Threshold is the bound in the series' raw unit; ThresholdMs the
	// same bound in milliseconds (latency histograms record ns).
	Threshold   float64 `json:"threshold,omitempty"`
	ThresholdMs float64 `json:"thresholdMs,omitempty"`
	// ForIntervals is the consecutive violating intervals before the
	// breach opens (0 and 1 both mean "immediately").
	ForIntervals int `json:"forIntervals,omitempty"`
}

// rule lowers the spec form to the metrics-plane rule.
func (r SLORuleSpec) rule() metrics.Rule {
	stat := r.Stat
	if stat == "" {
		stat = string(metrics.StatValue)
	}
	th := r.Threshold
	if r.ThresholdMs != 0 {
		th = r.ThresholdMs * float64(vtime.Millisecond)
	}
	return metrics.Rule{
		Name: r.Name, Metric: r.Metric, Stat: metrics.Stat(stat),
		Op: metrics.Op(r.Op), Threshold: th, For: r.ForIntervals,
	}
}

// Spec is a full scenario.
type Spec struct {
	Name      string     `json:"name"`
	Nodes     int        `json:"nodes"`
	Seed      int64      `json:"seed"`
	Costs     string     `json:"costs"`     // "default" | "zero"
	Scheduler string     `json:"scheduler"` // "EDF" | "RM" | "DM" | "Spring" | "best-effort"
	Policy    string     `json:"policy"`    // "SRP" | "PCP" | "none"
	HorizonMs float64    `json:"horizonMs"`
	Tasks     []TaskSpec `json:"tasks"`
	// Links declares the topology; empty with Nodes > 1 means a full
	// mesh with the cluster's default bounds.
	Links []LinkSpec `json:"links,omitempty"`
	// Faults schedules deterministic fault injection.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Groups declares membership groups (and replicated machines).
	Groups []GroupSpec `json:"groups,omitempty"`
	// Shards declares a sharded data plane (consistent-hash routing
	// over replication groups with a client request layer).
	Shards *ShardsSpec `json:"shards,omitempty"`
	// PubSub declares a QoS-aware publish-subscribe plane over the
	// sharded data plane (requires Shards).
	PubSub *PubSubSpec `json:"pubsub,omitempty"`
	// Placement overrides node assignments: "task" pins a Spuri task
	// (or every stage of a pipeline), "task/stage" pins one stage.
	Placement map[string]int `json:"placement,omitempty"`
	// Observe tunes trace sampling and event-log retention.
	Observe *ObserveSpec `json:"observe,omitempty"`
}

// Load reads a scenario from a JSON file.
func Load(path string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("scenario: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("scenario: parsing %s: %w", path, err)
	}
	return s.withDefaults()
}

// Builtin returns a named built-in scenario, freshly built: the
// caller owns every field of the returned spec.
func Builtin(name string) (Spec, error) {
	for _, build := range builtins {
		if s := build(); s.Name == name {
			return s.withDefaults()
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown builtin %q (have %v)", name, BuiltinNames())
}

// BuiltinNames lists the catalogue.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, build := range builtins {
		names[i] = build().Name
	}
	return names
}

// builtins is the catalogue, in listing order: one constructor per
// scenario, so every Builtin call builds a fresh spec whose pointer,
// slice and map fields no other caller shares.
var builtins = []func() Spec{
	// The §5 running example: three sporadic tasks sharing S under
	// EDF+SRP.
	func() Spec {
		return Spec{
			Name: "spuri-example", Nodes: 1, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "SRP", HorizonMs: 500,
			Tasks: []TaskSpec{
				{Name: "tau1", CBeforeUs: 300, CSUs: 200, CAfterUs: 500, Resource: "S", DeadlineMs: 5, PeriodMs: 10},
				{Name: "tau2", CBeforeUs: 800, CSUs: 400, CAfterUs: 800, Resource: "S", DeadlineMs: 12, PeriodMs: 20},
				{Name: "tau3", CBeforeUs: 2000, CSUs: 0, CAfterUs: 0, DeadlineMs: 40, PeriodMs: 50},
			},
		}
	},

	// The canonical priority-inversion workload (experiment X2).
	func() Spec {
		return Spec{
			Name: "inversion", Nodes: 1, Seed: 1, Costs: "default",
			Scheduler: "DM", Policy: "SRP", HorizonMs: 500,
			Tasks: []TaskSpec{
				{Name: "low", CBeforeUs: 0, CSUs: 8000, CAfterUs: 0, Resource: "R", DeadlineMs: 45, PeriodMs: 50},
				{Name: "mid", CBeforeUs: 15000, CSUs: 0, CAfterUs: 0, DeadlineMs: 40, PeriodMs: 50},
				{Name: "high", CBeforeUs: 0, CSUs: 1000, CAfterUs: 0, Resource: "R", DeadlineMs: 20, PeriodMs: 50},
			},
		}
	},

	// A deliberately overloaded set: misses expected.
	func() Spec {
		return Spec{
			Name: "overload", Nodes: 1, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "SRP", HorizonMs: 300,
			Tasks: []TaskSpec{
				{Name: "a", CBeforeUs: 6000, CSUs: 0, CAfterUs: 0, DeadlineMs: 10, PeriodMs: 10},
				{Name: "b", CBeforeUs: 6000, CSUs: 0, CAfterUs: 0, DeadlineMs: 10, PeriodMs: 10},
			},
		}
	},

	// A three-node sensing pipeline over explicit bounded-delay links,
	// with a deterministic omission fault on the remote precedence
	// port: the distributed-and-faulty workload as pure data.
	func() Spec {
		return Spec{
			Name: "distributed-pipeline", Nodes: 3, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 500,
			Links: []LinkSpec{
				{A: 0, B: 1, DMinUs: 100, DMaxUs: 250},
				{A: 1, B: 2, DMinUs: 150, DMaxUs: 400},
				{A: 0, B: 2, DMinUs: 100, DMaxUs: 300},
			},
			Faults: []FaultSpec{
				{Kind: "drop-every", K: 25, Port: "heug.prec"},
			},
			Tasks: []TaskSpec{
				{Name: "acquire", Law: "periodic", DeadlineMs: 18, PeriodMs: 20,
					Stages: []StageSpec{
						{Name: "sample", Node: 0, WCETUs: 400},
						{Name: "fuse", Node: 1, WCETUs: 900},
						{Name: "commit", Node: 2, WCETUs: 300},
					}},
				{Name: "watchdog", Law: "periodic", DeadlineMs: 50, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 1, WCETUs: 600},
					}},
			},
		}
	},

	// Membership churn: a passive replicated state machine over a
	// three-member view-synchronous group, fed by a client on node 3;
	// the primary crashes mid-run and recovers later, exercising the
	// whole cycle — suspicion → agreed view change → failover in the
	// same view at every replica → rejoin with state transfer.
	func() Spec {
		return Spec{
			Name: "membership-churn", Nodes: 4, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 400,
			Groups: []GroupSpec{
				{Name: "sm", Nodes: []int{0, 1, 2}, Style: "passive",
					CheckpointEvery: 5, SubmitEveryMs: 2, SubmitFrom: 3},
			},
			Faults: []FaultSpec{
				// Crash mid-checkpoint-interval so the passive style shows
				// its characteristic lost work.
				{Kind: "crash", Node: 0, AtMs: 65, RecoverMs: 200},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 3, WCETUs: 300},
					}},
			},
		}
	},

	// Partition split: the primary of a passive replicated state
	// machine is cut off from the rest of the cluster (a network
	// segmentation, not a crash). The majority side holds quorum of
	// the previous view, installs the removal view and promotes a new
	// primary; the isolated minority installs nothing and promotes
	// nothing (split-brain safety). At heal the minority is
	// re-admitted through a merge view with a state transfer, and
	// in-flight old-view traffic is flushed at the boundary.
	func() Spec {
		return Spec{
			Name: "partition-split", Nodes: 4, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 400,
			Groups: []GroupSpec{
				{Name: "sm", Nodes: []int{0, 1, 2}, Style: "passive",
					CheckpointEvery: 5, SubmitEveryMs: 2, SubmitFrom: 3},
			},
			Faults: []FaultSpec{
				// The client (node 3) stays with the majority side.
				{Kind: "partition", Partition: [][]int{{0}, {1, 2, 3}}, AtMs: 60, HealMs: 200},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 3, WCETUs: 300},
					}},
			},
		}
	},

	// Sharded KV: a keyspace consistent-hashed over two semi-active
	// replication groups, driven by a client that survives a primary
	// crash on one shard AND a primary partition on the other — the
	// request layer redirects to promoted replicas, retries through
	// the failover windows, and queued split-window requests land
	// after the merge, applied exactly once (per-key linearizability
	// is asserted by the scenario test across seeds). The client stays
	// on the majority side of the split (the fencing caveat).
	func() Spec {
		return Spec{
			Name: "sharded-kv", Nodes: 7, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 400,
			Observe: &ObserveSpec{TraceSampleRate: fptr(1.0), RetainViolations: true},
			Shards: &ShardsSpec{
				Count: 2, ReplicasPer: 3, Style: "semi-active",
				Session: &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5, PipelineDepth: 2},
				Clients: []ShardClientSpec{
					{Node: 6, SubmitEveryMs: 2, Policy: "queue",
						Keys: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}},
				},
			},
			Faults: []FaultSpec{
				// Shard 0's primary crashes and later rejoins.
				{Kind: "crash", Node: 0, AtMs: 60, RecoverMs: 260},
				// Shard 1's primary is segmented off alone; the client
				// (node 6) stays with the majority.
				{Kind: "partition", Partition: [][]int{{3}, {0, 1, 2, 4, 5, 6}}, AtMs: 140, HealMs: 240},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 6, WCETUs: 300},
					}},
			},
		}
	},

	// Bank transfer: cross-shard atomic transactions (2PC over the
	// sharded data plane) under a combined primary crash AND a
	// partition that segments one shard's serving quorum away from the
	// clients. Two transaction clients transfer between shared accounts
	// spread over both shards, every transaction carrying a 30 ms
	// deadline: transfers that cannot prepare across the fault windows
	// deterministically abort and release their locks; the rest commit
	// atomically. The scenario test asserts, across seeds, that
	// committed transfers are all-or-nothing in both shards'
	// authoritative histories, aborted ones leave no partial writes,
	// and no lock outlives its deadline (txn.Verify).
	func() Spec {
		return Spec{
			Name: "bank-transfer", Nodes: 8, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 400,
			Observe: &ObserveSpec{TraceSampleRate: fptr(1.0), RetainViolations: true},
			Shards: &ShardsSpec{
				Count: 2, ReplicasPer: 3, Style: "semi-active",
				Session: &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5, PipelineDepth: 2},
				Txns: []TxnClientSpec{
					{Node: 6, SubmitEveryMs: 3, DeadlineMs: 30,
						Accounts: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}},
					{Node: 7, SubmitEveryMs: 4, DeadlineMs: 30,
						Accounts: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}},
				},
			},
			Faults: []FaultSpec{
				// Shard 0's primary crashes and later rejoins.
				{Kind: "crash", Node: 0, AtMs: 60, RecoverMs: 260},
				// Shard 1's serving quorum {3,4} is segmented away from the
				// clients (its primary keeps quorum on the far side, so no
				// failover rescues client-side traffic): transactions
				// touching shard 1 can only deadline-abort until the heal.
				{Kind: "partition", Partition: [][]int{{3, 4}, {0, 1, 2, 5, 6, 7}}, AtMs: 140, HealMs: 240},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 6, WCETUs: 300},
					}},
			},
		}
	},

	// Hot shard: two zipf-skewed clients hammer a keyspace whose
	// hottest key is pinned to shard 0, whose primary then crashes —
	// the metrics plane's per-key sketch names the hot key, the
	// per-shard counters show the load imbalance, and the ack-latency
	// SLO probe records a breach that opens in the failover window and
	// clears after recovery. The companion scenario test and
	// `hades-metrics -top` both read the answer from the export.
	func() Spec {
		return Spec{
			Name: "hot-shard", Nodes: 8, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 400,
			Observe: &ObserveSpec{
				TraceSampleRate: fptr(1.0), RetainViolations: true,
				Metrics: &MetricsSpec{
					SLO: []SLORuleSpec{
						// Healthy p99 sits near 1.3ms; the failover burst acks
						// a ~10ms backlog inside one scrape interval, so the
						// rule trips immediately and clears next interval.
						{Name: "ack-p99", Metric: "kv.ack.latency", Stat: "p99",
							Op: "<=", ThresholdMs: 5},
						{Name: "no-drops", Metric: "net.drops", Op: "<=", Threshold: 0},
					},
				},
			},
			Shards: &ShardsSpec{
				Count: 2, ReplicasPer: 3, Style: "semi-active",
				Session: &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5, PipelineDepth: 2},
				// Pin the hot head of the zipf ranking to shard 0, the one
				// whose primary crashes below.
				Routes: map[string]int{"alpha": 0},
				Clients: []ShardClientSpec{
					{Node: 6, Count: 2, SubmitEveryMs: 2, Policy: "queue", ZipfSkew: 1.2,
						Keys: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}},
				},
			},
			Faults: []FaultSpec{
				// The hot shard's primary crashes and later rejoins: ack
				// latency spikes through the failover window.
				{Kind: "crash", Node: 0, AtMs: 60, RecoverMs: 260},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 6, WCETUs: 300},
					}},
			},
		}
	},

	// Load ramp: the load harness as data. An open-loop generator's
	// Poisson arrival rate climbs mid-run while a hotspot shift moves
	// the zipf-hot key from "alpha" (pinned to shard 0) to the next
	// rank (hashed to shard 1) — the offered-vs-achieved throughput
	// series records the ramp, the hot-shard sketch records the move.
	// A second, closed-loop generator keeps a fixed session population
	// thinking between acks on the other client node. The per-run
	// report (hades-load) distills both.
	func() Spec {
		return Spec{
			Name: "load-ramp", Nodes: 8, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 400,
			Observe: &ObserveSpec{TraceSampleRate: fptr(1.0), RetainViolations: true},
			Shards: &ShardsSpec{
				Count: 2, ReplicasPer: 3, Style: "semi-active",
				Session: &SessionSpec{MaxBatch: 4, FlushIntervalMs: 0.5, PipelineDepth: 2},
				// Pin the zipf head to shard 0 so the mid-run shift to the
				// next rank provably changes the serving shard.
				Routes: map[string]int{"alpha": 0, "bravo": 1},
				Load: []LoadSpec{
					{Name: "ramp", Mode: "open", Nodes: []int{6},
						Arrival: 400,
						Ramp: []RampStepSpec{
							{AtMs: 150, Rate: 1200},
							{AtMs: 320, Rate: 600},
						},
						ZipfSkew:     1.2,
						HotspotShift: []HotspotShiftSpec{{AtMs: 200, Shift: 1}},
						Keys:         []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}},
					{Name: "think", Mode: "closed", Nodes: []int{7},
						Sessions: 16, ThinkMs: 5,
						Keys: []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}},
				},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 6, WCETUs: 300},
					}},
			},
		}
	},

	// Sensor fan-out: the pub/sub plane under fan-out, a bursty
	// best-effort storm and a crash of the durable topic's owning
	// primary. "telemetry" is reliable+durable (history 8, 30ms
	// deadline): a fixed-rate publisher feeds four from-start
	// subscribers plus a late joiner that catches up from the
	// replicated history after the crashed primary has rejoined —
	// exactly-once delivery and convergence to the last 8 samples are
	// asserted by the scenario test across seeds. "sensors" is
	// best-effort: an open-loop generator storms it from two nodes
	// (publish latency = broadcast delivery, never a replicated round),
	// and every deadline miss on telemetry surfaces as a monitor
	// violation.
	func() Spec {
		return Spec{
			Name: "sensor-fan-out", Nodes: 8, Seed: 1, Costs: "default",
			Scheduler: "EDF", Policy: "none", HorizonMs: 1000,
			Observe: &ObserveSpec{TraceSampleRate: fptr(1.0), RetainViolations: true},
			Shards: &ShardsSpec{
				Count: 2, ReplicasPer: 3, Style: "semi-active",
				// Pin the durable topic to shard 0 (whose primary crashes
				// below) and the best-effort topic to shard 1.
				Routes: map[string]int{"telemetry": 0, "sensors": 1},
			},
			PubSub: &PubSubSpec{
				Topics: []TopicSpec{
					// The 10ms deadline clears the healthy path (p50 ≈ 0.8ms)
					// but not the failover window: the crash below produces
					// real DeadlineMiss events for the monitor plane.
					{Name: "telemetry", Reliability: "reliable", DeadlineMs: 10, HistoryDepth: 8, Durable: true},
					{Name: "sensors", Reliability: "bestEffort"},
				},
				Publishers: []PublisherSpec{
					{Topic: "telemetry", Node: 6, SubmitEveryMs: 2, Count: 300},
				},
				Subscribers: []SubscriberSpec{
					{Topic: "telemetry", Node: 3},
					{Topic: "telemetry", Node: 4},
					{Topic: "telemetry", Node: 5},
					{Topic: "telemetry", Node: 7},
					// Joins after the publisher went quiet and the crashed
					// primary rejoined: converges to the last 8 samples.
					{Topic: "telemetry", Node: 6, JoinAtMs: 700},
					{Topic: "sensors", Node: 1},
					{Topic: "sensors", Node: 2},
					{Topic: "sensors", Node: 7},
				},
				Load: []LoadSpec{
					// Each broadcast floods F+1 rounds to every node, so the
					// burst rate is sized to keep the receive CPUs below
					// saturation (≈8 flood copies per node per publish).
					{Name: "storm", Mode: "open", Nodes: []int{6, 7},
						Arrival: 300, EndMs: 800,
						Ramp: []RampStepSpec{
							{AtMs: 400, Rate: 1000},
							{AtMs: 550, Rate: 200},
						},
						Keys: []string{"sensors"}},
				},
			},
			Faults: []FaultSpec{
				// The durable topic's owning primary crashes mid-publish and
				// rejoins with a state transfer carrying the history ring.
				{Kind: "crash", Node: 0, AtMs: 300, RecoverMs: 600},
			},
			Tasks: []TaskSpec{
				{Name: "watchdog", Law: "periodic", DeadlineMs: 40, PeriodMs: 50,
					Stages: []StageSpec{
						{Name: "check", Node: 7, WCETUs: 300},
					}},
			},
		}
	},
}

func (s Spec) withDefaults() (Spec, error) {
	if s.Nodes <= 0 {
		s.Nodes = 1
	}
	if s.Scheduler == "" {
		s.Scheduler = "EDF"
	}
	if s.HorizonMs <= 0 {
		s.HorizonMs = 500
	}
	if len(s.Tasks) == 0 && len(s.Groups) == 0 && s.Shards == nil {
		return s, fmt.Errorf("scenario %q has no tasks, no groups and no shards", s.Name)
	}
	for i, t := range s.Tasks {
		if t.Name == "" {
			return s, fmt.Errorf("scenario %q: task %d unnamed", s.Name, i)
		}
		if t.PeriodMs <= 0 || t.DeadlineMs <= 0 {
			return s, fmt.Errorf("scenario %q: task %q needs positive period and deadline", s.Name, t.Name)
		}
		if len(t.Stages) > 0 && t.CBeforeUs+t.CSUs+t.CAfterUs > 0 {
			return s, fmt.Errorf("scenario %q: task %q mixes stages with cBefore/cs/cAfter", s.Name, t.Name)
		}
		for j, st := range t.Stages {
			if st.Name == "" {
				return s, fmt.Errorf("scenario %q: task %q stage %d unnamed", s.Name, t.Name, j)
			}
			if st.WCETUs <= 0 {
				return s, fmt.Errorf("scenario %q: task %q stage %q needs positive wcet", s.Name, t.Name, st.Name)
			}
			if st.Node < 0 || st.Node >= s.Nodes {
				return s, fmt.Errorf("scenario %q: task %q stage %q on unknown node %d (have %d)", s.Name, t.Name, st.Name, st.Node, s.Nodes)
			}
		}
	}
	for _, l := range s.Links {
		if l.A < 0 || l.A >= s.Nodes || l.B < 0 || l.B >= s.Nodes || l.A == l.B {
			return s, fmt.Errorf("scenario %q: bad link %d-%d (nodes=%d)", s.Name, l.A, l.B, s.Nodes)
		}
		if l.DMinUs < 0 || l.DMaxUs < l.DMinUs {
			return s, fmt.Errorf("scenario %q: link %d-%d has bad delay bounds [%g,%g]", s.Name, l.A, l.B, l.DMinUs, l.DMaxUs)
		}
	}
	if len(s.Faults) > 0 && s.Nodes < 2 && len(s.Links) == 0 {
		return s, fmt.Errorf("scenario %q: faults need a network (nodes > 1 or links)", s.Name)
	}
	for _, f := range s.Faults {
		if f.AtMs < 0 {
			return s, fmt.Errorf("scenario %q: %s fault at negative instant %gms", s.Name, f.Kind, f.AtMs)
		}
		switch f.Kind {
		case "drop-every":
			if f.K < 1 {
				return s, fmt.Errorf("scenario %q: drop-every fault needs k >= 1 (got %d)", s.Name, f.K)
			}
		case "drop-from", "crash":
			if f.Node < 0 || f.Node >= s.Nodes {
				return s, fmt.Errorf("scenario %q: %s fault on unknown node %d (have %d)", s.Name, f.Kind, f.Node, s.Nodes)
			}
			if f.Kind == "crash" && f.RecoverMs != 0 && f.RecoverMs <= f.AtMs {
				return s, fmt.Errorf("scenario %q: crash of node %d recovers at %gms, not after the crash at %gms", s.Name, f.Node, f.RecoverMs, f.AtMs)
			}
		case "random":
			if f.DropProb < 0 || f.DelayProb < 0 || f.DropProb+f.DelayProb > 1 {
				return s, fmt.Errorf("scenario %q: random fault needs probabilities in [0,1] with dropProb+delayProb <= 1", s.Name)
			}
		case "partition":
			if len(f.Partition) < 2 {
				return s, fmt.Errorf("scenario %q: partition fault needs at least 2 sides (got %d)", s.Name, len(f.Partition))
			}
			seen := map[int]bool{}
			for _, side := range f.Partition {
				if len(side) == 0 {
					return s, fmt.Errorf("scenario %q: partition fault has an empty side", s.Name)
				}
				for _, n := range side {
					if n < 0 || n >= s.Nodes {
						return s, fmt.Errorf("scenario %q: partition side names unknown node %d (have %d)", s.Name, n, s.Nodes)
					}
					if seen[n] {
						return s, fmt.Errorf("scenario %q: partition lists node %d in two sides", s.Name, n)
					}
					seen[n] = true
				}
			}
			if f.HealMs != 0 && f.HealMs <= f.AtMs {
				return s, fmt.Errorf("scenario %q: partition heals at %gms, not after the split at %gms", s.Name, f.HealMs, f.AtMs)
			}
		default:
			return s, fmt.Errorf("scenario %q: unknown fault kind %q", s.Name, f.Kind)
		}
	}
	groupNames := map[string]bool{}
	for _, g := range s.Groups {
		if g.Name == "" {
			return s, fmt.Errorf("scenario %q: unnamed group", s.Name)
		}
		if groupNames[g.Name] {
			return s, fmt.Errorf("scenario %q: duplicate group %q", s.Name, g.Name)
		}
		groupNames[g.Name] = true
		if s.Nodes < 2 && len(s.Links) == 0 {
			return s, fmt.Errorf("scenario %q: group %q needs a network (nodes > 1 or links)", s.Name, g.Name)
		}
		if len(g.Nodes) < 2 {
			return s, fmt.Errorf("scenario %q: group %q needs at least 2 nodes", s.Name, g.Name)
		}
		members := map[int]bool{}
		for _, n := range g.Nodes {
			if n < 0 || n >= s.Nodes {
				return s, fmt.Errorf("scenario %q: group %q member %d unknown (have %d nodes)", s.Name, g.Name, n, s.Nodes)
			}
			if members[n] {
				return s, fmt.Errorf("scenario %q: group %q lists member %d twice", s.Name, g.Name, n)
			}
			members[n] = true
		}
		switch g.Style {
		case "", "passive", "semi-active", "active":
		default:
			return s, fmt.Errorf("scenario %q: group %q has unknown style %q", s.Name, g.Name, g.Style)
		}
		if g.Style == "" && g.SubmitEveryMs > 0 {
			return s, fmt.Errorf("scenario %q: group %q submits requests but has no replication style", s.Name, g.Name)
		}
		for _, r := range g.Replicas {
			found := false
			for _, n := range g.Nodes {
				if n == r {
					found = true
					break
				}
			}
			if !found {
				return s, fmt.Errorf("scenario %q: group %q replica %d not a member", s.Name, g.Name, r)
			}
		}
		if g.SubmitFrom < 0 || g.SubmitFrom >= s.Nodes {
			return s, fmt.Errorf("scenario %q: group %q submits from unknown node %d", s.Name, g.Name, g.SubmitFrom)
		}
	}
	if err := s.validateShards(); err != nil {
		return s, err
	}
	// Load-generator names key metric series and report rows, so they
	// must be unique across the shards, groups and pubsub blocks.
	loadNames := map[string]bool{}
	if s.Shards != nil {
		for _, ls := range s.Shards.Load {
			loadNames[ls.Name] = true
		}
	}
	if err := s.validateGroupLoads(loadNames); err != nil {
		return s, err
	}
	if err := s.validatePubSub(loadNames); err != nil {
		return s, err
	}
	if o := s.Observe; o != nil {
		if o.TraceSampleRate != nil && (*o.TraceSampleRate < 0 || *o.TraceSampleRate > 1) {
			return s, fmt.Errorf("scenario %q: observe traceSampleRate must be within [0,1] (got %g)", s.Name, *o.TraceSampleRate)
		}
		if o.LogLimit != nil && *o.LogLimit <= 0 {
			return s, fmt.Errorf("scenario %q: observe logLimit must be positive (got %d)", s.Name, *o.LogLimit)
		}
		if m := o.Metrics; m != nil {
			if m.IntervalMs < 0 {
				return s, fmt.Errorf("scenario %q: observe metrics intervalMs must not be negative (got %g)", s.Name, m.IntervalMs)
			}
			if m.Capacity < 0 {
				return s, fmt.Errorf("scenario %q: observe metrics capacity must not be negative (got %d)", s.Name, m.Capacity)
			}
			if m.TopK < 0 {
				return s, fmt.Errorf("scenario %q: observe metrics topK must not be negative (got %d)", s.Name, m.TopK)
			}
			if m.Disabled && len(m.SLO) > 0 {
				return s, fmt.Errorf("scenario %q: observe metrics declares %d slo rules but the plane is disabled", s.Name, len(m.SLO))
			}
			for i, r := range m.SLO {
				if r.Threshold != 0 && r.ThresholdMs != 0 {
					return s, fmt.Errorf("scenario %q: slo rule %d (%q) sets both threshold and thresholdMs", s.Name, i, r.Name)
				}
				if r.ForIntervals < 0 {
					return s, fmt.Errorf("scenario %q: slo rule %d (%q) has negative forIntervals %d", s.Name, i, r.Name, r.ForIntervals)
				}
				if err := r.rule().Validate(); err != nil {
					return s, fmt.Errorf("scenario %q: slo rule %d: %v", s.Name, i, err)
				}
			}
		}
	}
	for key, node := range s.Placement {
		if node < 0 || node >= s.Nodes {
			return s, fmt.Errorf("scenario %q: placement %q on unknown node %d (have %d)", s.Name, key, node, s.Nodes)
		}
		if !s.placementKeyKnown(key) {
			return s, fmt.Errorf("scenario %q: placement %q names no task or task/stage", s.Name, key)
		}
	}
	return s, nil
}

// validateShards rejects malformed sharded-data-plane specs with loud
// errors: zero shards, overlapping replica sets, keys routed to
// undeclared groups, colliding or out-of-range clients.
func (s Spec) validateShards() error {
	sp := s.Shards
	if sp == nil {
		return nil
	}
	if s.Nodes < 2 && len(s.Links) == 0 {
		return fmt.Errorf("scenario %q: shards need a network (nodes > 1 or links)", s.Name)
	}
	if sp.Count < 1 {
		return fmt.Errorf("scenario %q: shards spec declares zero shards (count=%d)", s.Name, sp.Count)
	}
	switch sp.Style {
	case "", "semi-active", "passive":
	case "active":
		return fmt.Errorf("scenario %q: shard style \"active\" has no primary to route to", s.Name)
	default:
		return fmt.Errorf("scenario %q: unknown shard style %q", s.Name, sp.Style)
	}
	owner := map[int]int{} // node → shard index
	if len(sp.Groups) > 0 {
		if len(sp.Groups) != sp.Count {
			return fmt.Errorf("scenario %q: shards declare count=%d but %d explicit groups", s.Name, sp.Count, len(sp.Groups))
		}
		for i, g := range sp.Groups {
			if len(g) < 2 {
				return fmt.Errorf("scenario %q: shard group %d needs at least 2 replicas (got %d)", s.Name, i, len(g))
			}
			for _, n := range g {
				if n < 0 || n >= s.Nodes {
					return fmt.Errorf("scenario %q: shard group %d names unknown node %d (have %d)", s.Name, i, n, s.Nodes)
				}
				if prev, dup := owner[n]; dup {
					return fmt.Errorf("scenario %q: node %d is a replica of shard groups %d and %d (overlapping group membership)", s.Name, n, prev, i)
				}
				owner[n] = i
			}
		}
	} else {
		if sp.ReplicasPer < 2 {
			return fmt.Errorf("scenario %q: shards need replicasPer >= 2 (got %d)", s.Name, sp.ReplicasPer)
		}
		if need := sp.Count * sp.ReplicasPer; need > s.Nodes {
			return fmt.Errorf("scenario %q: %d shards × %d replicas need %d nodes, have %d", s.Name, sp.Count, sp.ReplicasPer, need, s.Nodes)
		}
		for i := 0; i < sp.Count; i++ {
			for r := 0; r < sp.ReplicasPer; r++ {
				owner[i*sp.ReplicasPer+r] = i
			}
		}
	}
	for key, idx := range sp.Routes {
		if idx < 0 || idx >= sp.Count {
			return fmt.Errorf("scenario %q: key %q routed to undeclared shard group %d (have %d)", s.Name, key, idx, sp.Count)
		}
	}
	if se := sp.Session; se != nil {
		if len(sp.Clients) == 0 && len(sp.Txns) == 0 && len(sp.Load) == 0 {
			return fmt.Errorf("scenario %q: session knobs on a shards spec with no clients, txns or load (nothing to batch)", s.Name)
		}
		if se.MaxBatch < 1 {
			return fmt.Errorf("scenario %q: session maxBatch must be >= 1 (got %d)", s.Name, se.MaxBatch)
		}
		if se.FlushIntervalMs <= 0 {
			return fmt.Errorf("scenario %q: session flushIntervalMs must be positive (got %g)", s.Name, se.FlushIntervalMs)
		}
		if se.PipelineDepth < 1 {
			return fmt.Errorf("scenario %q: session pipelineDepth must be >= 1 (got %d)", s.Name, se.PipelineDepth)
		}
	}
	clientNodes := map[int]bool{}
	for i, cl := range sp.Clients {
		if cl.Count < 0 {
			return fmt.Errorf("scenario %q: shard client %d has negative count %d", s.Name, i, cl.Count)
		}
		if cl.ZipfSkew < 0 {
			return fmt.Errorf("scenario %q: shard client %d has negative zipfSkew %g", s.Name, i, cl.ZipfSkew)
		}
		for _, node := range cl.nodes() {
			if node < 0 || node >= s.Nodes {
				return fmt.Errorf("scenario %q: shard client %d on unknown node %d (have %d)", s.Name, i, node, s.Nodes)
			}
			if _, replica := owner[node]; replica {
				return fmt.Errorf("scenario %q: shard client %d on node %d collides with a shard replica", s.Name, i, node)
			}
			if clientNodes[node] {
				return fmt.Errorf("scenario %q: two shard clients on node %d", s.Name, node)
			}
			clientNodes[node] = true
		}
		if len(cl.Keys) == 0 {
			return fmt.Errorf("scenario %q: shard client %d has no keys", s.Name, i)
		}
		if cl.openLoop() {
			if cl.SubmitEveryMs != 0 {
				return fmt.Errorf("scenario %q: shard client %d mixes submitEveryMs with the open-loop arrival knobs (pick one discipline)", s.Name, i)
			}
			if err := cl.loadConfig(1, cl.Node, s.Horizon()).Validate(); err != nil {
				return fmt.Errorf("scenario %q: shard client %d: %v", s.Name, i, err)
			}
		} else {
			if len(cl.HotspotShift) > 0 {
				return fmt.Errorf("scenario %q: shard client %d sets hotspotShift without an open-loop arrival (a fixed schedule cannot shift)", s.Name, i)
			}
			if cl.SubmitEveryMs <= 0 {
				return fmt.Errorf("scenario %q: shard client %d needs a positive submitEveryMs", s.Name, i)
			}
		}
		switch cl.Policy {
		case "", "queue", "fail-fast":
		default:
			return fmt.Errorf("scenario %q: shard client %d has unknown policy %q", s.Name, i, cl.Policy)
		}
		if cl.RetryTimeoutMs < 0 || cl.MaxRetries < 0 {
			return fmt.Errorf("scenario %q: shard client %d has negative retry parameters", s.Name, i)
		}
	}
	for i, tc := range sp.Txns {
		if tc.Node < 0 || tc.Node >= s.Nodes {
			return fmt.Errorf("scenario %q: txn client %d on unknown node %d (have %d)", s.Name, i, tc.Node, s.Nodes)
		}
		if _, replica := owner[tc.Node]; replica {
			return fmt.Errorf("scenario %q: txn client %d on node %d collides with a shard replica", s.Name, i, tc.Node)
		}
		if clientNodes[tc.Node] {
			return fmt.Errorf("scenario %q: two clients on node %d", s.Name, tc.Node)
		}
		clientNodes[tc.Node] = true
		if len(tc.Accounts) < 2 {
			return fmt.Errorf("scenario %q: txn client %d needs at least 2 accounts (got %d)", s.Name, i, len(tc.Accounts))
		}
		if tc.SubmitEveryMs <= 0 {
			return fmt.Errorf("scenario %q: txn client %d needs a positive submitEveryMs", s.Name, i)
		}
		if tc.DeadlineMs < 0 || tc.RetryTimeoutMs < 0 || tc.MaxRetries < 0 {
			return fmt.Errorf("scenario %q: txn client %d has negative timing parameters", s.Name, i)
		}
	}
	loadNames := map[string]bool{}
	for i, ls := range sp.Load {
		if ls.Name == "" {
			return fmt.Errorf("scenario %q: load %d unnamed", s.Name, i)
		}
		if loadNames[ls.Name] {
			return fmt.Errorf("scenario %q: duplicate load %q (metric series would collide)", s.Name, ls.Name)
		}
		loadNames[ls.Name] = true
		switch ls.Mode {
		case "", "closed", "open":
		default:
			return fmt.Errorf("scenario %q: load %q has unknown mode %q (want closed or open)", s.Name, ls.Name, ls.Mode)
		}
		switch ls.Workload {
		case "", "kv", "txn":
		default:
			return fmt.Errorf("scenario %q: load %q has unknown workload %q (want kv or txn; pubsub loads live in the pubsub block)", s.Name, ls.Name, ls.Workload)
		}
		if len(ls.Nodes) == 0 {
			return fmt.Errorf("scenario %q: load %q names no client nodes", s.Name, ls.Name)
		}
		seen := map[int]bool{}
		for _, n := range ls.Nodes {
			if n < 0 || n >= s.Nodes {
				return fmt.Errorf("scenario %q: load %q on unknown node %d (have %d)", s.Name, ls.Name, n, s.Nodes)
			}
			if _, replica := owner[n]; replica {
				return fmt.Errorf("scenario %q: load %q on node %d collides with a shard replica", s.Name, ls.Name, n)
			}
			if seen[n] {
				return fmt.Errorf("scenario %q: load %q lists node %d twice", s.Name, ls.Name, n)
			}
			seen[n] = true
		}
		if ls.StartMs < 0 || ls.EndMs < 0 {
			return fmt.Errorf("scenario %q: load %q has a negative window bound [%gms, %gms]", s.Name, ls.Name, ls.StartMs, ls.EndMs)
		}
		if err := ls.config(1, s.Horizon()).Validate(); err != nil {
			return fmt.Errorf("scenario %q: %v", s.Name, err)
		}
	}
	return nil
}

// placementKeyKnown reports whether key names a task ("task") or one
// of its stages ("task/stage").
func (s Spec) placementKeyKnown(key string) bool {
	for _, t := range s.Tasks {
		if key == t.Name {
			return true
		}
		for _, st := range t.Stages {
			if key == t.Name+"/"+st.Name {
				return true
			}
		}
	}
	return false
}

// fptr lifts a literal into the optional-field pointer form.
func fptr(f float64) *float64 { return &f }

func us(f float64) vtime.Duration { return vtime.Duration(f * float64(vtime.Microsecond)) }
func msd(f float64) vtime.Duration {
	return vtime.Duration(f * float64(vtime.Millisecond))
}

// Spuri converts a non-staged task spec to the §5.1 model.
func (t TaskSpec) Spuri() heug.SpuriTask {
	return heug.SpuriTask{
		Name:         t.Name,
		Node:         t.Node,
		CBefore:      us(t.CBeforeUs),
		CS:           us(t.CSUs),
		CAfter:       us(t.CAfterUs),
		Resource:     t.Resource,
		Deadline:     msd(t.DeadlineMs),
		PseudoPeriod: msd(t.PeriodMs),
	}
}

// law returns the HEUG arrival law of the task spec.
func (t TaskSpec) law() heug.Arrival {
	if t.Law == "periodic" {
		return heug.PeriodicEvery(msd(t.PeriodMs))
	}
	return heug.SporadicEvery(msd(t.PeriodMs))
}

// stageNode resolves the node of one stage under the placement map.
func (s Spec) stageNode(task TaskSpec, stage StageSpec) int {
	if n, ok := s.Placement[task.Name+"/"+stage.Name]; ok {
		return n
	}
	if n, ok := s.Placement[task.Name]; ok {
		return n
	}
	return stage.Node
}

// heugTask builds the HEUG task for one spec entry, applying placement.
func (s Spec) heugTask(t TaskSpec) (*heug.Task, error) {
	if len(t.Stages) == 0 {
		st := t.Spuri()
		if n, ok := s.Placement[t.Name]; ok {
			st.Node = n
		}
		task, err := st.ToHEUG()
		if err != nil {
			return nil, err
		}
		task.Arrival = t.law()
		return task, nil
	}
	b := heug.NewTask(t.Name, t.law()).WithDeadline(msd(t.DeadlineMs))
	for _, stage := range t.Stages {
		b = b.Code(stage.Name, heug.CodeEU{Node: s.stageNode(t, stage), WCET: us(stage.WCETUs)})
	}
	for i := 1; i < len(t.Stages); i++ {
		b = b.Precede(t.Stages[i-1].Name, t.Stages[i].Name)
	}
	return b.Build()
}

// CostBook resolves the scenario's cost book.
func (s Spec) CostBook() dispatcher.CostBook {
	if s.Costs == "zero" {
		return dispatcher.ZeroCostBook()
	}
	return dispatcher.DefaultCostBook()
}

// AnalysisTasks converts the scenario to the feasibility model. Staged
// tasks contribute their summed WCET, EU count and same-node edges.
func (s Spec) AnalysisTasks() []feasibility.Task {
	out := make([]feasibility.Task, len(s.Tasks))
	for i, t := range s.Tasks {
		if len(t.Stages) == 0 {
			out[i] = feasibility.FromSpuri(t.Spuri())
			continue
		}
		var c vtime.Duration
		edges := 0
		for j, stage := range t.Stages {
			c += us(stage.WCETUs)
			if j > 0 && s.stageNode(t, stage) == s.stageNode(t, t.Stages[j-1]) {
				edges++
			}
		}
		out[i] = feasibility.Task{
			Name:       t.Name,
			C:          c,
			D:          msd(t.DeadlineMs),
			T:          msd(t.PeriodMs),
			NumEU:      len(t.Stages),
			LocalEdges: edges,
		}
	}
	return out
}

// buildScheduler resolves the scheduling policy name.
func (s Spec) buildScheduler(c *cluster.Cluster) (dispatcher.Scheduler, error) {
	switch s.Scheduler {
	case "EDF":
		return sched.NewEDF(20 * vtime.Microsecond), nil
	case "RM":
		return sched.NewRM(), nil
	case "DM":
		return sched.NewDM(), nil
	case "Spring":
		return sched.NewSpring(15*vtime.Microsecond, 100*vtime.Microsecond, c.Now), nil
	case "best-effort":
		return sched.NewBestEffort(0), nil
	default:
		return nil, fmt.Errorf("scenario: unknown scheduler %q", s.Scheduler)
	}
}

// buildPolicy resolves the resource protocol name.
func (s Spec) buildPolicy() (dispatcher.ResourcePolicy, error) {
	switch s.Policy {
	case "SRP":
		return sched.NewSRP(), nil
	case "PCP":
		return sched.NewPCP(), nil
	case "", "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", s.Policy)
	}
}

// Build assembles a runnable cluster from the scenario: platform,
// topology, application, task placement, activation sources and fault
// schedules. Run it with c.Run(spec.Horizon()).
func (s Spec) Build() (*cluster.Cluster, error) {
	cfg := cluster.Config{Seed: s.Seed, Costs: s.CostBook()}
	if o := s.Observe; o != nil {
		if o.TraceSampleRate != nil {
			cfg.Trace = &cluster.TraceParams{SampleRate: *o.TraceSampleRate}
		}
		if o.LogLimit != nil {
			cfg.LogLimit = *o.LogLimit
		}
		cfg.RingLog = o.RetainViolations
		if m := o.Metrics; m != nil {
			mp := &cluster.MetricsParams{
				Interval: msd(m.IntervalMs),
				Capacity: m.Capacity,
				TopK:     m.TopK,
				Disabled: m.Disabled,
			}
			for _, r := range m.SLO {
				mp.Rules = append(mp.Rules, r.rule())
			}
			cfg.Metrics = mp
		}
	}
	c := cluster.New(cfg)
	c.AddNodes(s.Nodes)
	for _, l := range s.Links {
		c.Connect(l.A, l.B, us(l.DMinUs), us(l.DMaxUs))
	}
	policy, err := s.buildPolicy()
	if err != nil {
		return nil, err
	}
	pol, err := s.buildScheduler(c)
	if err != nil {
		return nil, err
	}
	app := c.NewApp(s.Name, pol, policy)
	for _, ts := range s.Tasks {
		task, err := s.heugTask(ts)
		if err != nil {
			return nil, err
		}
		if err := app.Spawn(task); err != nil {
			return nil, err
		}
	}
	for _, f := range s.Faults {
		switch f.Kind {
		case "drop-every":
			c.DropEvery(f.K, f.Port)
		case "drop-from":
			c.DropFrom([]int{f.Node}, f.Port)
		case "random":
			c.DropRandom(f.DropProb, f.DelayProb, us(f.MaxExtraUs))
		case "crash":
			c.Crash(f.Node, vtime.Time(msd(f.AtMs)), vtime.Time(msd(f.RecoverMs)))
		case "partition":
			c.PartitionAt(vtime.Time(msd(f.AtMs)), f.Partition...)
			if f.HealMs > 0 {
				c.HealAt(vtime.Time(msd(f.HealMs)))
			}
		}
	}
	if sp := s.Shards; sp != nil {
		cfg := cluster.ShardConfig{
			Groups:          sp.Groups,
			Style:           shardStyle(sp.Style),
			VNodes:          sp.VNodes,
			Routes:          sp.Routes,
			WExec:           us(sp.WExecUs),
			CheckpointEvery: sp.CheckpointEvery,
			StorageLatency:  us(sp.StorageLatencyUs),
		}
		if se := sp.Session; se != nil {
			knobs := session.Params{
				MaxBatch:      se.MaxBatch,
				FlushInterval: msd(se.FlushIntervalMs),
				PipelineDepth: se.PipelineDepth,
			}
			cfg.Session = knobs
			cfg.GroupCommit = knobs
		}
		set := c.ShardsWith(sp.Count, sp.ReplicasPer, cfg)
		for _, cs := range sp.Clients {
			for _, node := range cs.nodes() {
				cl := set.ClientWith(shard.ClientParams{
					Node:         node,
					RetryTimeout: msd(cs.RetryTimeoutMs),
					MaxRetries:   cs.MaxRetries,
					Policy:       shardPolicy(cs.Policy),
				})
				if cs.openLoop() {
					// AttachLoad reuses the client just registered on
					// the node; the Poisson schedule replaces the fixed
					// interval entirely.
					set.AttachLoad(cs.loadConfig(s.Seed, node, s.Horizon()), []int{node})
					continue
				}
				every := msd(cs.SubmitEveryMs)
				pick := cs.picker(s.Seed, node)
				i := 0
				for t := vtime.Duration(0); t < s.Horizon(); t += every {
					key := pick(i)
					cmd := int64(i + 1)
					i++
					c.At(vtime.Time(t), func() { cl.Submit(key, cmd) })
				}
			}
		}
		for _, ts := range sp.Txns {
			tc := set.TxnClientWith(txn.ClientParams{
				Node:         ts.Node,
				Deadline:     msd(ts.DeadlineMs),
				RetryTimeout: msd(ts.RetryTimeoutMs),
				MaxRetries:   ts.MaxRetries,
			})
			every := msd(ts.SubmitEveryMs)
			accounts := ts.Accounts
			i := 0
			for t := vtime.Duration(0); t < s.Horizon(); t += every {
				src := accounts[i%len(accounts)]
				dst := accounts[(i+1)%len(accounts)]
				amount := int64(i + 1)
				i++
				c.At(vtime.Time(t), func() { tc.Transfer(src, dst, amount) })
			}
		}
		for i, ls := range sp.Load {
			if ls.Disabled {
				continue
			}
			set.AttachLoad(ls.config(loadSeed(s.Seed, i), s.Horizon()), append([]int(nil), ls.Nodes...))
		}
		if s.PubSub != nil {
			if err := s.buildPubSub(c, set); err != nil {
				return nil, err
			}
		}
	}
	for gi, gs := range s.Groups {
		g := c.Group(gs.Name, gs.Nodes...)
		if gs.Style == "" {
			continue
		}
		wexec := gs.WExecUs
		if wexec <= 0 {
			wexec = 100
		}
		storeLat := gs.StorageLatencyUs
		if storeLat <= 0 {
			storeLat = 20
		}
		rep := g.Replicate(replication.Config{
			Replicas:        gs.Replicas,
			Style:           replicationStyle(gs.Style),
			WExec:           us(wexec),
			CheckpointEvery: gs.CheckpointEvery,
			StorageLatency:  us(storeLat),
		}, nil)
		if gs.SubmitEveryMs > 0 {
			every := msd(gs.SubmitEveryMs)
			from := gs.SubmitFrom
			seq := int64(0)
			for t := vtime.Duration(0); t < s.Horizon(); t += every {
				seq++
				cmd := seq
				c.At(vtime.Time(t), func() { rep.Submit(from, cmd) })
			}
		}
		for j, ls := range gs.Load {
			if ls.Disabled {
				continue
			}
			cfg := ls.config(groupLoadSeed(s.Seed, gi, j), s.Horizon())
			g.AttachLoad(cfg)
		}
	}
	return c, nil
}

// replicationStyle maps the JSON style name (already validated).
func replicationStyle(name string) replication.Style {
	switch name {
	case "semi-active":
		return replication.SemiActive
	case "active":
		return replication.Active
	default:
		return replication.Passive
	}
}

// shardStyle maps the shard style name (already validated; the shard
// default is semi-active, the style the exactly-once verification
// requires).
func shardStyle(name string) replication.Style {
	if name == "passive" {
		return replication.Passive
	}
	return replication.SemiActive
}

// shardPolicy maps the client policy name (already validated).
func shardPolicy(name string) shard.Policy {
	if name == "fail-fast" {
		return shard.FailFast
	}
	return shard.QueueOnFailure
}

// Horizon returns the simulation horizon.
func (s Spec) Horizon() vtime.Duration { return msd(s.HorizonMs) }
