package cluster_test

import (
	"testing"

	"hades/internal/cluster"
	"hades/internal/dispatcher"
	"hades/internal/heug"
	"hades/internal/sched"
	"hades/internal/vtime"
)

// newCluster returns a cluster of n nodes; n > 1 gets the default mesh.
func newCluster(cfg cluster.Config, n int) *cluster.Cluster {
	c := cluster.New(cfg)
	c.AddNodes(n)
	return c
}

func simpleTask(name string, arrival heug.Arrival, node int, wcet, deadline vtime.Duration) *heug.Task {
	return heug.NewTask(name, arrival).
		WithDeadline(deadline).
		Code("eu", heug.CodeEU{Node: node, WCET: wcet}).
		MustBuild()
}

func taskActivations(res cluster.Result, name string) int {
	for _, tr := range res.Tasks {
		if tr.Name == name {
			return tr.Activations
		}
	}
	return 0
}

func TestPeriodicGeneratorFollowsLaw(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("p", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	if err := c.StartPeriodic("p"); err != nil {
		t.Fatal(err)
	}
	res := c.Run(105 * ms)
	// Releases at t = 0, 10, ..., 100: eleven activations.
	if res.Stats.Activations != 11 {
		t.Fatalf("activations %d, want 11 in 105ms at 10ms period (offset 0)", res.Stats.Activations)
	}
	if res.Stats.ArrivalViolations != 0 {
		t.Fatalf("generator violated its own law: %d", res.Stats.ArrivalViolations)
	}
}

func TestPeriodicRejectsWrongLaw(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("s", heug.SporadicEvery(10*ms), 0, 500*us, 10*ms))
	if err := c.StartPeriodic("s"); err == nil {
		t.Fatal("StartPeriodic accepted a sporadic task")
	}
	if err := c.StartSporadicWorstCase("nope"); err == nil {
		t.Fatal("unknown task accepted")
	}
	if err := c.StartSporadicWorstCase("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.StartSporadicWorstCase("s"); err == nil {
		t.Fatal("a task already driven was started twice")
	}
}

func TestSporadicWithGapsKeepsLaw(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("s", heug.SporadicEvery(10*ms), 0, 500*us, 10*ms))
	if err := c.StartSporadic("s", func(k uint64) vtime.Duration {
		return vtime.Duration(k%3) * ms // jittered but never early
	}); err != nil {
		t.Fatal(err)
	}
	res := c.Run(200 * ms)
	if res.Stats.ArrivalViolations != 0 {
		t.Fatalf("sporadic generator violated the pseudo-period: %d", res.Stats.ArrivalViolations)
	}
	if res.Stats.Activations < 15 {
		t.Fatalf("activations %d", res.Stats.Activations)
	}
}

func TestActivateOnCond(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewRM(), nil)
	app.MustAddTask(simpleTask("alarm", heug.AperiodicLaw(), 0, 100*us, 5*ms))
	setter := heug.NewTask("setter", heug.AperiodicLaw()).
		WithDeadline(10*ms).
		Code("s", heug.CodeEU{Node: 0, WCET: 100 * us, Action: func(ctx heug.ActionContext) {
			ctx.SetCond("event")
		}}).
		MustBuild()
	app.MustAddTask(setter)
	c.ActivateOnCond("event", "alarm")
	c.ActivateAt("setter", vtime.Time(20*ms))
	res := c.Run(50 * ms)
	var alarmDone int
	for _, tr := range res.Tasks {
		if tr.Name == "alarm" {
			alarmDone = tr.Completions
		}
	}
	if alarmDone != 1 {
		t.Fatalf("alarm completions %d, want 1 (event-triggered)", alarmDone)
	}
}

func TestMultiAppIsolationBands(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1, Costs: dispatcher.DefaultCostBook()}, 1)
	g := c.NewApp("g", sched.NewEDF(10*us), nil)
	g.MustSpawn(simpleTask("crit", heug.PeriodicEvery(10*ms), 0, 3*ms, 10*ms))
	be := c.NewApp("be", sched.NewBestEffort(0), nil)
	be.MustSpawn(heug.NewTask("noise", heug.PeriodicEvery(4*ms)).
		Code("eu", heug.CodeEU{Node: 0, WCET: 3 * ms}).
		MustBuild())
	res := c.Run(500 * ms)
	if taskActivations(res, "noise") == 0 {
		t.Fatal("best-effort load never ran; the test proves nothing")
	}
	for _, tr := range res.Tasks {
		if tr.Name == "crit" && tr.Misses > 0 {
			t.Fatalf("guaranteed task missed %d deadlines under best-effort overload", tr.Misses)
		}
	}
}

func TestRunIsResumable(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewRM(), nil)
	app.MustSpawn(simpleTask("x", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	r1 := c.Run(50 * ms)
	r2 := c.Run(50 * ms)
	if r2.Until != vtime.Time(100*ms) {
		t.Fatalf("second run ended at %s", r2.Until)
	}
	if r2.Stats.Activations <= r1.Stats.Activations {
		t.Fatal("no progress across Run calls")
	}
}

func TestSingleNodeHasNoNetwork(t *testing.T) {
	if newCluster(cluster.Config{Seed: 1}, 1).Network() != nil {
		t.Fatal("single-node cluster grew a network")
	}
	multi := newCluster(cluster.Config{Seed: 1}, 3)
	if multi.Network() == nil {
		t.Fatal("multi-node cluster has no network")
	}
	if d, ok := multi.Network().DelayBound(0, 2); !ok || d <= 0 {
		t.Fatal("default mesh not connected")
	}
}

func TestAddSpuriIntegration(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewEDF(10*us), sched.NewSRP())
	err := app.AddSpuri(heug.SpuriTask{
		Name: "st", CBefore: 200 * us, CS: 100 * us, CAfter: 100 * us,
		Resource: "S", Deadline: 5 * ms, PseudoPeriod: 10 * ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StartSporadicWorstCase("st"); err != nil {
		t.Fatal(err)
	}
	res := c.Run(100 * ms)
	if res.Stats.DeadlineMisses != 0 || res.Stats.Completions < 9 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

func TestDuplicateTaskRejected(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 1}, 1)
	app := c.NewApp("a", sched.NewRM(), nil)
	task := simpleTask("dup", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms)
	app.MustAddTask(task)
	if err := app.AddTask(task); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}
