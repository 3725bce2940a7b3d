package serve

import "time"

// Autoscale configures the per-group replica controller. The controller
// consumes the signal the group already publishes to the telemetry
// registry — the pending-queue depth gauge — and applies hysteresis so
// transient spikes and lulls do not churn replicas: a scale decision needs
// its condition to hold for upAfter (resp. downAfter) consecutive
// evaluation ticks, and the pool size is always clamped to [Min, Max].
//
// Growth is one replica per decision (a deep model clone plus adapter —
// deliberate: doubling strategies overshoot on pools this small), shrink
// is one replica per decision, retired lazily by the next idle worker.
type Autoscale struct {
	// Enabled turns the controller on. When false every other field is
	// ignored and groups keep their AddGroup replica count forever.
	Enabled bool
	// Min and Max clamp the pool size. Defaults: Min 1, Max Min+3.
	Min, Max int
	// Interval is the evaluation period of the background controller.
	// Default 250ms. Tests drive ticks explicitly via Server.ScaleTick
	// with a long Interval.
	Interval time.Duration
}

func (a Autoscale) withDefaults() Autoscale {
	if !a.Enabled {
		return a
	}
	if a.Min < 1 {
		a.Min = 1
	}
	if a.Max < a.Min {
		a.Max = a.Min + 3
	}
	if a.Interval <= 0 {
		a.Interval = 250 * time.Millisecond
	}
	return a
}

// scaleLoop is the group's background controller: evaluate every Interval
// until the group closes.
func (g *group) scaleLoop() {
	t := time.NewTicker(g.cfg.Autoscale.Interval)
	defer t.Stop()
	for {
		select {
		case <-g.stopScale:
			return
		case <-t.C:
			g.scaleTick()
		}
	}
}

const (
	// upDepthPerReplica is the growth trigger: scale up when the pending
	// queue holds at least this many requests per live replica.
	upDepthPerReplica = 2
	// upAfter and downAfter are the hysteresis windows: consecutive ticks
	// the up (resp. down) condition must hold before acting.
	upAfter, downAfter = 2, 5
)

// scaleTick runs one controller evaluation: observe queue depth and active
// dispatches, update the hysteresis streaks, and grow or retire one replica
// when a streak completes.
//
// Ticks are expected from one caller at a time (the background loop, or a
// test driving Server.ScaleTick); the streak counters are not guarded for
// concurrent tickers. All pool mutations happen under the group lock.
func (g *group) scaleTick() {
	a := g.cfg.Autoscale
	if !a.Enabled {
		return
	}

	g.mu.Lock()
	live := len(g.replicas) - g.retire
	depth := len(g.pending)
	active := g.active
	closed := g.closed
	g.mu.Unlock()
	if closed {
		return
	}

	up := live < a.Max && depth >= upDepthPerReplica*live
	down := live > a.Min && depth == 0 && active < live

	if up {
		g.upStreak++
		g.downStreak = 0
	} else if down {
		g.downStreak++
		g.upStreak = 0
	} else {
		g.upStreak, g.downStreak = 0, 0
	}

	switch {
	case g.upStreak >= upAfter:
		g.upStreak = 0
		g.grow()
	case g.downStreak >= downAfter:
		g.downStreak = 0
		g.mu.Lock()
		if len(g.replicas)-g.retire > a.Min {
			g.retire++
			g.scaleDowns++
			// Wake an idle worker so it can retire promptly.
			g.cond.Broadcast()
		}
		g.mu.Unlock()
	}
}

// grow adds one replica to the pool, built by newReplica outside the group
// lock (the clone is the expensive part).
func (g *group) grow() {
	r, err := g.newReplica()
	if err != nil {
		return
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	// A pending retirement cancels out against growth: un-retiring keeps
	// the already-built worker instead of stacking an exit and a spawn.
	if g.retire > 0 {
		g.retire--
		g.scaleUps++
		g.mu.Unlock()
		return
	}
	g.scaleUps++
	g.mu.Unlock()
	g.startReplica(r)
}
