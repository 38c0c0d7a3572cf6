package cluster

import (
	"fmt"

	"hades/internal/heug"
	"hades/internal/monitor"
)

// Operational modes implement the low-level fault-tolerance mechanism
// §3.2.1 assigns to the dispatcher: "switching of modes of operation in
// case of failure [Mos94]". A mode names a set of tasks whose
// activation generators run while the mode is active; switching modes
// stops the old generators, optionally aborts the old mode's live
// instances (orphaning their threads), and starts the new set — e.g. a
// degraded local-control mode after a network or node failure.
//
//	c.DefineMode("normal", "full")
//	c.DefineMode("degraded", "lite")
//	c.EnterMode("normal")
//	c.Run(10 * vtime.Millisecond)
//	aborted, _ := c.SwitchMode("degraded", true) // e.g. from a detector callback

// DefineMode declares a mode as a set of task names. Tasks must already
// be registered. Periodic tasks get timer generators on entry; sporadic
// ones worst-case generators; aperiodic ones are activated by events
// only.
func (c *Cluster) DefineMode(name string, tasks ...string) error {
	c.build()
	if _, dup := c.modes[name]; dup {
		return fmt.Errorf("cluster: mode %q already defined", name)
	}
	for _, task := range tasks {
		if _, ok := c.disp.Task(task); !ok {
			return fmt.Errorf("cluster: mode %q references unknown task %q", name, task)
		}
	}
	if c.modes == nil {
		c.modes = make(map[string][]string)
	}
	c.modes[name] = tasks
	return nil
}

// CurrentMode returns the active mode name ("" before EnterMode).
func (c *Cluster) CurrentMode() string { return c.mode }

// EnterMode starts a mode's generators. Call once to start; use
// SwitchMode afterwards. The first activations respect the tasks'
// offsets only when the mode is entered at time zero; mid-run they
// fire immediately.
func (c *Cluster) EnterMode(name string) error {
	tasks, ok := c.modes[name]
	if !ok {
		return fmt.Errorf("cluster: unknown mode %q", name)
	}
	c.mode = name
	c.log.Recordf(c.eng.Now(), monitor.KindFailover, -1, "mode", "enter %q", name)
	for _, task := range tasks {
		tr, _ := c.disp.Task(task)
		law := tr.Task.Arrival
		if law.Kind == heug.Aperiodic {
			continue // event-driven only
		}
		delay := law.Offset
		if c.eng.Now() > 0 {
			delay = 0
		}
		c.startGenerator(task, law.Period, delay, nil, true)
	}
	return nil
}

// SwitchMode stops the current mode's generators and enters the new
// mode. When abortLive is true, live instances of the old mode's tasks
// are cancelled — their threads become orphans, per §3.2.1 — so the new
// mode starts from a clean slate (a safety-critical mode change).
// It returns the number of instances aborted.
func (c *Cluster) SwitchMode(name string, abortLive bool) (int, error) {
	if _, ok := c.modes[name]; !ok {
		return 0, fmt.Errorf("cluster: unknown mode %q", name)
	}
	c.stopGenerators(func(g *generator) bool { return g.mode })
	aborted := 0
	if abortLive {
		for _, task := range c.modes[c.mode] {
			aborted += c.disp.CancelLive(task, "mode switch")
		}
	}
	c.log.Recordf(c.eng.Now(), monitor.KindFailover, -1, "mode",
		"switch %q -> %q (aborted %d)", c.mode, name, aborted)
	return aborted, c.EnterMode(name)
}

// StopTask cancels every running activation generator of one task,
// whether a mode, Spawn or StartPeriodic/StartSporadic started it. The
// task can be driven again by entering a mode or calling StartPeriodic
// or StartSporadic.
func (c *Cluster) StopTask(task string) {
	c.stopGenerators(func(g *generator) bool { return g.task == task })
	delete(c.started, task)
}
