package cluster_test

import (
	"strings"
	"testing"

	"hades/internal/cluster"
	"hades/internal/heug"
	"hades/internal/monitor"
	"hades/internal/sched"
	"hades/internal/vtime"
)

func modesRig(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := newCluster(cluster.Config{Seed: 2}, 1)
	app := c.NewApp("a", sched.NewEDF(10*us), nil)
	app.MustAddTask(simpleTask("full", heug.PeriodicEvery(10*ms), 0, 2*ms, 10*ms))
	app.MustAddTask(simpleTask("aux", heug.PeriodicEvery(20*ms), 0, 1*ms, 20*ms))
	app.MustAddTask(simpleTask("degraded", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	if err := c.DefineMode("normal", "full", "aux"); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineMode("safe", "degraded"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestModeEnterRunsItsTasks(t *testing.T) {
	c := modesRig(t)
	if err := c.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	res := c.Run(100 * ms)
	if taskActivations(res, "full") == 0 || taskActivations(res, "aux") == 0 {
		t.Fatalf("normal-mode tasks idle: %+v", res.Tasks)
	}
	if n := taskActivations(res, "degraded"); n != 0 {
		t.Fatalf("safe-mode task ran %d times in normal mode", n)
	}
	if c.CurrentMode() != "normal" {
		t.Fatal("mode not recorded")
	}
}

func TestModeSwitchStopsOldStartsNew(t *testing.T) {
	c := modesRig(t)
	if err := c.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * ms)
	if _, err := c.SwitchMode("safe", false); err != nil {
		t.Fatal(err)
	}
	fullBefore := taskActivations(c.ResultNow(), "full")
	res := c.Run(100 * ms)
	if got := taskActivations(res, "full"); got != fullBefore {
		t.Fatalf("old-mode task still activating after switch: %d -> %d", fullBefore, got)
	}
	if taskActivations(res, "degraded") == 0 {
		t.Fatal("new-mode task not activating")
	}
	if c.CurrentMode() != "safe" {
		t.Fatal("mode not switched")
	}
	var modeEvents []string
	for _, e := range c.Log().Events() {
		if e.Kind == monitor.KindFailover && e.Subject == "mode" {
			modeEvents = append(modeEvents, e.Detail)
		}
	}
	want := `enter "normal"|switch "normal" -> "safe" (aborted 0)|enter "safe"`
	if got := strings.Join(modeEvents, "|"); got != want {
		t.Fatalf("mode events %q, want %q", got, want)
	}
}

func TestModeSwitchAbortsLiveInstances(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 2}, 1)
	app := c.NewApp("a", sched.NewEDF(10*us), nil)
	// A long-running task that will be mid-flight at the switch.
	app.MustAddTask(simpleTask("slow", heug.PeriodicEvery(50*ms), 0, 30*ms, 50*ms))
	app.MustAddTask(simpleTask("fallback", heug.PeriodicEvery(10*ms), 0, 500*us, 10*ms))
	if err := c.DefineMode("normal", "slow"); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineMode("safe", "fallback"); err != nil {
		t.Fatal(err)
	}
	if err := c.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * ms) // slow#1 is mid-execution
	aborted, err := c.SwitchMode("safe", true)
	if err != nil {
		t.Fatal(err)
	}
	if aborted != 1 {
		t.Fatalf("aborted %d instances, want 1", aborted)
	}
	res := c.Run(100 * ms)
	if res.Stats.Orphans == 0 {
		t.Fatal("no orphan threads recorded for the aborted instance")
	}
	if n := taskActivations(res, "fallback"); n < 9 {
		t.Fatalf("fallback barely ran: %d", n)
	}
}

func TestModeErrors(t *testing.T) {
	c := modesRig(t)
	if err := c.DefineMode("normal", "full"); err == nil {
		t.Fatal("duplicate mode accepted")
	}
	if err := c.DefineMode("bad", "ghost-task"); err == nil {
		t.Fatal("unknown task accepted in mode")
	}
	if err := c.EnterMode("ghost"); err == nil {
		t.Fatal("unknown mode entered")
	}
	if _, err := c.SwitchMode("ghost", false); err == nil {
		t.Fatal("switch to unknown mode accepted")
	}
}

// TestFailureTriggeredModeSwitch wires the full §2.1 story: a fault
// detector suspicion triggers the switch to a degraded mode — the
// "switching of modes of operation in case of failure" mechanism.
func TestFailureTriggeredModeSwitch(t *testing.T) {
	c := newCluster(cluster.Config{Seed: 2}, 1)
	app := c.NewApp("a", sched.NewEDF(10*us), nil)
	app.MustAddTask(simpleTask("primary", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	app.MustAddTask(simpleTask("backuptask", heug.PeriodicEvery(10*ms), 0, 1*ms, 10*ms))
	if err := c.DefineMode("normal", "primary"); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineMode("degraded", "backuptask"); err != nil {
		t.Fatal(err)
	}
	if err := c.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	// Simulate a detector callback firing at 50 ms.
	c.ActivateAt("primary", vtime.Time(0)) // extra manual activation is fine (monitored)
	c.Run(50 * ms)
	if _, err := c.SwitchMode("degraded", true); err != nil {
		t.Fatal(err)
	}
	res := c.Run(50 * ms)
	if c.CurrentMode() != "degraded" {
		t.Fatal("not in degraded mode")
	}
	if taskActivations(res, "backuptask") == 0 {
		t.Fatal("degraded task idle")
	}
}

// TestStopTaskStopsEveryGenerator: StopTask silences a task whichever
// call started it, and frees it to be driven again.
func TestStopTaskStopsEveryGenerator(t *testing.T) {
	c := modesRig(t)
	if err := c.EnterMode("normal"); err != nil {
		t.Fatal(err)
	}
	if err := c.StartPeriodic("degraded"); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * ms)
	c.StopTask("full")
	c.StopTask("degraded")
	before := c.ResultNow()
	res := c.Run(50 * ms)
	for _, task := range []string{"full", "degraded"} {
		if got, was := taskActivations(res, task), taskActivations(before, task); got != was {
			t.Fatalf("stopped task %q still activating: %d -> %d", task, was, got)
		}
	}
	if taskActivations(res, "aux") == taskActivations(before, "aux") {
		t.Fatal("StopTask silenced a task it was not asked to stop")
	}
	if err := c.StartPeriodic("degraded"); err != nil {
		t.Fatalf("stopped task cannot be driven again: %v", err)
	}
}
