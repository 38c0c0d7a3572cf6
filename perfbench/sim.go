package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"hades/internal/cluster"
	"hades/internal/metrics"
	"hades/internal/monitor"
	"hades/internal/report"
	"hades/internal/scenario"
	"hades/internal/vtime"
)

// simOutcome is what the modelled cluster delivered in one run, read
// from public outputs only: the Result, the report, the monitor log
// and the metrics export. It is a pure function of the spec, so a
// change that only speeds up the simulator leaves it identical.
type simOutcome struct {
	attempted int // client requests issued
	done      int // requests completed, successfully or not
	ok        int // requests that succeeded
	p50, p99  vtime.Duration
	samples   int // latency samples behind p50/p99
	goodput   float64
	// outage is the longest run of scrape intervals with no successful
	// completion inside a fault window (0 without faults).
	outage      vtime.Duration
	fingerprint string
	// checkErr joins the failures of the repository's own checkers.
	checkErr error
	// counters are the deterministic per-layer counters.
	counters map[string]float64
	// regimeErr reports a workload that left its intended regime.
	regimeErr error
	// bursts and misses are the burst activations and deadline misses
	// of a task workload, in time order.
	bursts, misses []vtime.Time
}

func (o simOutcome) failRatio() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.attempted-o.ok) / float64(o.attempted)
}

// verify runs the repository's checkers on every shard set and
// validates the run's report.
func verify(c *cluster.Cluster, doc *report.Report) error {
	var errs []error
	for _, set := range c.ShardSets() {
		errs = append(errs, set.Check(), set.CheckTxns(), set.CheckPubSub())
	}
	errs = append(errs, doc.Validate())
	return errors.Join(errs...)
}

// fingerprint digests the run's virtual-time outputs: the report JSON
// and every retained monitor event.
func fingerprint(reportJSON []byte, log *monitor.Log) string {
	h := sha256.New()
	h.Write(reportJSON)
	var buf [8]byte
	for _, e := range log.Events() {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.At))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Kind)<<32|uint64(uint32(int32(e.Node))))
		h.Write(buf[:])
		h.Write([]byte(e.Subject))
		h.Write([]byte{0})
		h.Write([]byte(e.Detail))
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(log.Dropped()))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// outcome distills one finished run.
func outcome(w workload, spec scenario.Spec, c *cluster.Cluster, res cluster.Result) simOutcome {
	o := simOutcome{counters: map[string]float64{}}
	if len(res.Loads) > 0 {
		loadOps(&o, w, res)
	} else {
		taskOps(&o, c.Log())
	}
	o.goodput = float64(o.ok) / (spec.Horizon().Millis() / 1e3)
	if w.fault {
		o.outage, o.regimeErr = outageAfterFault(spec, res, w)
	}
	layerCounters(&o, c, res)
	if o.regimeErr == nil {
		o.regimeErr = regime(w, o, res)
	}
	return o
}

// loadOps reads the workload's load generators. A kv write or a
// publish succeeds when acknowledged, a transfer when it commits. The
// latency percentiles are the named generator's.
func loadOps(o *simOutcome, w workload, res cluster.Result) {
	aborted := 0
	for _, tc := range res.TxnClients {
		aborted += tc.Aborted
	}
	for _, l := range res.Loads {
		o.attempted += int(l.Offered)
		o.done += int(l.Acked)
		o.ok += int(l.Acked)
		if l.Workload == "txn" {
			o.ok -= aborted
		}
		if l.Name == w.latencyLoad {
			o.p50, o.p99, o.samples = l.Latency.P50, l.Latency.P99, l.Latency.Count
		}
	}
}

// taskOps reads task instances from the monitor log: an instance's
// latency is its activation-to-completion time, and it fails when it
// misses its deadline or has not completed by the horizon.
func taskOps(o *simOutcome, log *monitor.Log) {
	activated := map[string]vtime.Time{}
	missed := map[string]bool{}
	completed := map[string]bool{}
	var lat []vtime.Duration
	for _, e := range log.Events() {
		switch e.Kind {
		case monitor.KindActivation:
			activated[e.Subject] = e.At
			if strings.HasPrefix(e.Subject, burstTask) {
				o.bursts = append(o.bursts, e.At)
			}
		case monitor.KindDeadlineMiss:
			o.misses = append(o.misses, e.At)
			if !missed[e.Subject] && !completed[e.Subject] {
				o.done++
			}
			missed[e.Subject] = true
		case monitor.KindTaskComplete:
			if at, ok := activated[e.Subject]; ok {
				lat = append(lat, e.At.Sub(at))
				completed[e.Subject] = true
				if !missed[e.Subject] {
					o.ok++
					o.done++
				}
			}
		}
	}
	o.attempted = len(activated)
	o.p50, o.p99, o.samples = percentiles(lat)
}

// percentiles uses the same nearest-rank rule as the load generators.
func percentiles(lat []vtime.Duration) (p50, p99 vtime.Duration, n int) {
	n = len(lat)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) vtime.Duration {
		i := int(q * float64(n))
		if i >= n {
			i = n - 1
		}
		return lat[i]
	}
	return at(0.50), at(0.99), n
}

// successSeries names the metrics series counting successful
// completions per scrape interval.
func successSeries(w workload, res cluster.Result) string {
	for _, l := range res.Loads {
		if l.Workload == "txn" {
			return "txn.commits"
		}
	}
	return "load." + w.latencyLoad + ".acked"
}

// outageAfterFault finds the longest run of consecutive scrape
// intervals without a successful completion inside a fault window: from
// a fault of the spec to the recovery or heal that ends it. The fault
// instants come from the spec, not the monitor log, whose head-mode
// bound may have dropped them. Only windows the metrics series still
// hold count; at least one must.
func outageAfterFault(spec scenario.Spec, res cluster.Result, w workload) (vtime.Duration, error) {
	name := successSeries(w, res)
	var points []metrics.PointData
	if res.Metrics != nil {
		for _, s := range res.Metrics.Series {
			if s.Name == name {
				points = s.Points
			}
		}
	}
	if len(points) == 0 {
		return 0, fmt.Errorf("outage: no series %s", name)
	}
	interval := vtime.Duration(res.Metrics.IntervalNs)
	ms := func(x float64) vtime.Time { return vtime.Time(x * float64(vtime.Millisecond)) }
	var longest vtime.Duration
	covered := false
	for _, f := range spec.Faults {
		from, to := ms(f.AtMs), ms(max(f.RecoverMs, f.HealMs))
		if vtime.Time(points[0].T) > from {
			continue
		}
		covered = true
		var run vtime.Duration
		for _, p := range points {
			t := vtime.Time(p.T)
			if t <= from || t.Add(-interval) >= to {
				continue
			}
			if p.V == 0 {
				run += interval
				longest = max(longest, run)
			} else {
				run = 0
			}
		}
	}
	if !covered {
		return 0, fmt.Errorf("outage: series %s no longer holds any fault window", name)
	}
	return longest, nil
}

// seriesTotal sums a counter series over the points its ring kept.
func seriesTotal(res cluster.Result, name string) int64 {
	var sum int64
	if res.Metrics != nil {
		for _, s := range res.Metrics.Series {
			if s.Name == name {
				for _, p := range s.Points {
					sum += p.V
				}
			}
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters collects the deterministic per-layer counters.
func layerCounters(o *simOutcome, c *cluster.Cluster, res cluster.Result) {
	m := o.counters
	ops := float64(o.attempted)
	log := c.Log()
	events := map[monitor.Kind]int{}
	for _, e := range log.Events() {
		events[e.Kind]++
	}

	m["sim_fail_ratio"] = o.failRatio()
	m["sim_outage_ms"] = o.outage.Millis()
	m["sim_latency_samples"] = float64(o.samples)

	m["monitor.events_per_op"] = ratio(float64(log.Len()+log.Dropped()), ops)
	m["monitor.retained_events"] = float64(log.Len())
	m["simkern.events_per_op"] = ratio(float64(c.Engine().EventsFired()), ops)

	var submitted, batches, retries, parked int
	for _, cl := range res.Clients {
		submitted += cl.Submitted
		batches += cl.Batches
		retries += cl.Retries
		parked += cl.Queued
	}
	var begun, committed, deadlineAborts int
	for _, tc := range res.TxnClients {
		begun += tc.Begun
		committed += tc.Committed
		deadlineAborts += tc.DeadlineAborts
		retries += tc.Retries
		parked += tc.Queued
	}
	var redirects, lockWaits int
	for _, s := range res.Shards {
		redirects += s.Redirects
		lockWaits += s.Txn.LockWaits
	}
	m["session.ops_per_batch"] = ratio(float64(submitted), float64(batches))
	m["session.retries_per_op"] = ratio(float64(retries), ops)
	m["session.parked"] = float64(parked)
	m["shard.redirects"] = float64(redirects)
	m["netsim.msgs_per_op"] = ratio(float64(res.Net.Sent), ops)
	m["netsim.drops"] = float64(res.Net.Dropped)

	rounds := seriesTotal(res, "repl.rounds")
	fanout := seriesTotal(res, "rbcast.fanout")
	var acked int64
	for _, l := range res.Loads {
		acked += seriesTotal(res, "load."+l.Name+".acked")
	}
	m["replication.rounds_per_op"] = ratio(float64(rounds), float64(acked))
	m["replication.checkpoints"] = float64(events[monitor.KindCheckpoint])
	m["rbcast.rounds_per_op"] = ratio(float64(fanout), float64(acked))

	m["txn.commit_ratio"] = ratio(float64(committed), float64(begun))
	m["txn.deadline_aborts"] = float64(deadlineAborts)
	m["txn.lock_waits_per_txn"] = ratio(float64(lockWaits), float64(begun))

	var views, flushed int
	var viewLat, noQuorum vtime.Duration
	for _, g := range res.Groups {
		views += len(g.Views)
		flushed += g.Flushed
		viewLat = max(viewLat, g.MaxViewLatency)
		noQuorum += g.NoQuorumTime
	}
	m["membership.views"] = float64(views)
	m["membership.view_latency_ms"] = viewLat.Millis()
	m["membership.no_quorum_ms"] = noQuorum.Millis()
	m["rbcast.flushed"] = float64(flushed)

	var published, delivered, suppressed, misses int
	for _, t := range res.PubSub {
		published += t.Published
		delivered += t.Delivered
		suppressed += t.Suppressed
		misses += t.DeadlineMiss
	}
	m["pubsub.deliveries_per_publish"] = ratio(float64(delivered), float64(published))
	m["pubsub.suppressed_ratio"] = ratio(float64(suppressed), float64(delivered))
	m["pubsub.deadline_misses"] = float64(misses)

	switches := 0
	for _, p := range c.Engine().Processors() {
		switches += p.Switches()
	}
	m["dispatcher.instances"] = float64(res.Stats.Activations)
	m["dispatcher.miss_ratio"] = ratio(float64(res.Stats.DeadlineMisses), float64(res.Stats.Activations))
	m["dispatcher.ctx_switches_per_instance"] = ratio(float64(switches), float64(res.Stats.Activations))
	// Both counts come from the retained log window, so the ratio
	// holds even when the log bound dropped events.
	m["sched.priority_changes_per_instance"] = ratio(float64(events[monitor.KindPriorityChange]), float64(events[monitor.KindActivation]))

	_, finished, retained, _ := c.Tracer().Counts()
	m["trace.finished_per_op"] = ratio(float64(finished), ops)
	m["trace.retained"] = float64(retained)
	m["metrics.scrapes"] = float64(c.Metrics().Scrapes())
}

// regime checks that a workload still measures what it was built to
// measure.
func regime(w workload, o simOutcome, res cluster.Result) error {
	switch w.name {
	case "kv-open":
		// Achieved ~ offered: no backlog growing past the horizon.
		if o.failRatio() > 0.001 {
			return fmt.Errorf("kv-open: %d of %d writes unacknowledged: backlog grew", o.attempted-o.ok, o.attempted)
		}
	case "txn-closed-failover":
		var begun, dl int
		for _, tc := range res.TxnClients {
			begun += tc.Begun
			dl += tc.DeadlineAborts
		}
		if ratio(float64(dl), float64(begun)) > 0.05 {
			return fmt.Errorf("txn-closed-failover: %d of %d transfers deadline-aborted: past the contention knee, or a client stopped making progress", dl, begun)
		}
		failovers := 0
		for _, g := range res.Groups {
			failovers += g.Failovers
		}
		if failovers == 0 {
			return errors.New("txn-closed-failover: no failover")
		}
	case "rt-edf-burst":
		// Every deadline miss falls in the first part of a burst
		// period: the backlog a burst causes has drained before the
		// next one arrives.
		for _, m := range o.misses {
			i := sort.Search(len(o.bursts), func(i int) bool { return o.bursts[i] > m }) - 1
			if i < 0 || m.Sub(o.bursts[i]) > drainWindow {
				return fmt.Errorf("rt-edf-burst: deadline miss at %s not within %s of a burst: backlog did not drain", m, drainWindow)
			}
		}
	case "pubsub-storm":
		merges := 0
		for _, g := range res.Groups {
			merges += g.Merges
		}
		if merges == 0 {
			return errors.New("pubsub-storm: no merge view after the heal")
		}
	}
	return nil
}
