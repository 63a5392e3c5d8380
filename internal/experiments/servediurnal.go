package experiments

import (
	"fmt"
	"strings"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/units"
)

// The serve-diurnal-drop study puts the request-serving subsystem under
// the paper's §2 emergency: an 8-way node serving two SLO classes of
// diurnal open-loop traffic loses most of its power budget (1120 W →
// 220 W) right across the demand peak. Two policies divide the reduced
// budget:
//
//   - fvsst with the idle signal: idle processors park at the table floor
//     (9 W) and the freed headroom lifts the busy ones — with five or six
//     CPUs parked, the serving CPUs run at 550–650 MHz inside the 220 W
//     cap;
//   - uniform: every processor pinned at the highest frequency whose
//     8-way table power fits the cap — 400 MHz (22 W) at 220 W — the
//     classic "slow everything equally" response.
//
// Both runs serve byte-identical request sequences (same streams, same
// per-station size draws), so the only difference is frequency policy.
// The CPU-bound web class is sized so its mean request meets its SLO at
// 550 MHz and above but misses it at 400 MHz: uniform misses the SLO on
// most web requests during the drop while fvsst keeps meeting it, because
// frequency scheduling concentrates the shrunken budget on the processors
// that are actually serving.

const (
	serveCPUs     = 8
	serveBudgetW  = 1120.0 // 8 × the 140 W table maximum
	serveDropW    = 220.0
	serveWebCount = 4 // web client streams (class 0), plus one batch client
	// serveDrainSec extends the drop-window score past the budget
	// restoration: requests slowed by the drop resolve (complete or time
	// out) after it ends, and scoring only to the restoration instant
	// would silently exclude exactly the requests the drop hurt.
	serveDrainSec = 1.0
)

// serveClasses is the fixed two-class mix: latency-sensitive web requests
// with a tight SLO and a queue-wait timeout, and bulk batch requests that
// may wait but must complete.
func serveClasses() []serve.Class {
	return []serve.Class{
		// CPU-bound and frequency-sensitive: ~160 ms at 600 MHz, ~240 ms
		// at 400 MHz, against a 210 ms SLO.
		{Name: "web", Phase: serve.PhaseProfile(1.3, 0.0005), MeanInstr: 70e6, SizeCV: 0.25,
			SLO: 0.210, Timeout: 1.0, Priority: 1, QueueCap: 512},
		// Memory-bound: stall time dominates, so batch barely profits from
		// frequency and fvsst can serve it on near-floor processors.
		{Name: "batch", Phase: serve.PhaseProfile(1.1, 0.02), MeanInstr: 60e6, SizeCV: 0.5,
			SLO: 1.500, QueueCap: 512},
	}
}

// servingNode is one machine serving the two SLO classes of
// serveClasses, and the feeder of its clients' arrival streams.
type servingNode struct {
	m      *machine.Machine
	st     *serve.Station
	feeder *serve.Feeder
}

// newServingNode builds a bare machine from mcfg with a station serving
// webClients web clients (class 0) of arrival spec webSpec and, when
// batchSpec is not empty, one more client sending batch requests
// (class 1). The station draws from mcfg.Seed+17 (the station seed
// convention), web client cl from mcfg.Seed+streamOff+cl and the batch
// client from mcfg.Seed+streamOff+50.
func newServingNode(mcfg machine.Config, webClients int, webSpec, batchSpec string, streamOff int64) (servingNode, error) {
	m, err := newMachine(mcfg)
	if err != nil {
		return servingNode{}, err
	}
	clients := webClients
	if batchSpec != "" {
		clients++
	}
	st, err := serve.NewStation(m, serve.Config{Classes: serveClasses(), Clients: clients, Seed: mcfg.Seed + 17})
	if err != nil {
		return servingNode{}, err
	}
	n := servingNode{m: m, st: st, feeder: &serve.Feeder{}}
	add := func(class, client int, spec string, seed int64) error {
		aspec, err := serve.ParseArrivalSpec(spec)
		if err != nil {
			return err
		}
		stm, err := aspec.NewStream(seed)
		if err != nil {
			return err
		}
		n.feeder.Add(class, client, stm)
		return nil
	}
	for cl := 0; cl < webClients; cl++ {
		if err := add(0, cl, webSpec, mcfg.Seed+streamOff+int64(cl)); err != nil {
			return servingNode{}, err
		}
	}
	if batchSpec != "" {
		if err := add(1, webClients, batchSpec, mcfg.Seed+streamOff+50); err != nil {
			return servingNode{}, err
		}
	}
	return n, nil
}

// ServeWindow is one class's score over the budget-drop window.
type ServeWindow struct {
	Class      string  `json:"class"`
	SLOOk      uint64  `json:"slo_ok"`
	Resolved   uint64  `json:"resolved"` // completed + timed out in the window
	Dropped    uint64  `json:"dropped,omitempty"`
	Attainment float64 `json:"attainment"`
}

// ServeDiurnalOutcome is one policy's run.
type ServeDiurnalOutcome struct {
	Policy string
	// Final is the whole-run score after draining.
	Final serve.Summary
	// Drop holds the per-class scores inside the budget-drop window, in
	// class order (web, batch).
	Drop []ServeWindow
	// Offered is the total request count presented (identical across
	// policies by construction).
	Offered uint64
	// MeanPowerW / DropPowerW are time-averaged system powers over the
	// serving horizon and the drop window.
	MeanPowerW float64
	DropPowerW float64
}

// ServeDiurnalReport compares the two policies.
type ServeDiurnalReport struct {
	PeriodSec    float64
	HorizonSec   float64
	DropStartSec float64
	DropEndSec   float64
	FVSST        ServeDiurnalOutcome
	Uniform      ServeDiurnalOutcome
}

// serveWindowDiff subtracts two cumulative class summaries.
func serveWindowDiff(a, b serve.ClassSummary) ServeWindow {
	w := ServeWindow{
		Class:    b.Class,
		SLOOk:    b.SLOOk - a.SLOOk,
		Resolved: (b.Completed + b.TimedOut) - (a.Completed + a.TimedOut),
		Dropped:  b.Dropped - a.Dropped,
	}
	if w.Resolved > 0 {
		w.Attainment = float64(w.SLOOk) / float64(w.Resolved)
	}
	return w
}

// serveDiurnalRun serves the scenario under one policy.
func (o Options) serveDiurnalRun(uniform bool, period, horizon, dropStart, dropEnd float64) (ServeDiurnalOutcome, error) {
	// Four diurnal bursty web clients and one diurnal batch client, all
	// peaking together.
	n, err := newServingNode(o.machineConfig(serveCPUs), serveWebCount,
		fmt.Sprintf("gamma:2,cv=1.5,depth=0.5,period=%g", period),
		fmt.Sprintf("poisson:1,depth=0.5,period=%g", period), 300)
	if err != nil {
		return ServeDiurnalOutcome{}, err
	}
	m, st, feeder := n.m, n.st, n.feeder
	budgets, err := power.NewBudgetSchedule(units.Watts(serveBudgetW),
		power.BudgetEvent{At: dropStart, Budget: units.Watts(serveDropW)},
		power.BudgetEvent{At: dropEnd, Budget: units.Watts(serveBudgetW)})
	if err != nil {
		return ServeDiurnalOutcome{}, err
	}

	var drv *fvsst.Driver
	if !uniform {
		cfg := fvsst.DefaultConfig()
		cfg.UseIdleSignal = true
		if drv, err = newDriver(m, cfg, units.Watts(serveBudgetW)); err != nil {
			return ServeDiurnalOutcome{}, err
		}
		drv.Budgets = budgets
	}
	lastFi := -1

	out := ServeDiurnalOutcome{Policy: "fvsst"}
	if uniform {
		out.Policy = "uniform"
	}
	var snapStart, snapEnd serve.Summary
	tookStart, tookEnd := false, false
	var powerSum, dropPowerSum float64
	var powerN, dropN int
	deadline := horizon + 10
	for {
		now := m.Now()
		if now >= horizon && st.Drained() {
			break
		}
		if now >= deadline {
			return ServeDiurnalOutcome{}, fmt.Errorf("experiments: %s serve run did not drain (backlog %d)", out.Policy, st.Backlog())
		}
		if now < horizon {
			feeder.DeliverUpTo(now, st)
		}
		if !tookStart && now >= dropStart {
			snapStart, tookStart = st.Scoreboard().Summarize(now), true
		}
		if !tookEnd && now >= dropEnd+serveDrainSec {
			snapEnd, tookEnd = st.Scoreboard().Summarize(now), true
		}
		st.BeforeQuantum(now)
		if uniform {
			if lastFi, err = uniformPin(budgets.BudgetAt(now), lastFi, m); err != nil {
				return ServeDiurnalOutcome{}, err
			}
		}
		if err := step(m, drv); err != nil {
			return ServeDiurnalOutcome{}, err
		}
		st.AfterQuantum(m.Now())
		if now < horizon {
			p := float64(m.SystemPower())
			powerSum += p
			powerN++
			if now >= dropStart && now < dropEnd {
				dropPowerSum += p
				dropN++
			}
		}
	}
	if !tookStart || !tookEnd {
		return ServeDiurnalOutcome{}, fmt.Errorf("experiments: drop window [%g,%g)+%gs drain outside horizon %g", dropStart, dropEnd, serveDrainSec, horizon)
	}
	out.Final = st.Scoreboard().Summarize(horizon)
	for ci := range out.Final.Classes {
		out.Drop = append(out.Drop, serveWindowDiff(snapStart.Classes[ci], snapEnd.Classes[ci]))
	}
	out.Offered = st.Account().Offered
	if powerN > 0 {
		out.MeanPowerW = powerSum / float64(powerN)
	}
	if dropN > 0 {
		out.DropPowerW = dropPowerSum / float64(dropN)
	}
	return out, nil
}

// ServeDiurnalDrop runs the budget-drop serving study.
func ServeDiurnalDrop(o Options) (*ServeDiurnalReport, error) {
	period := 4.0 * float64(o.Scale)
	if period < 3 {
		period = 3
	}
	horizon := 2 * period
	// The drop brackets the first demand peak (sin maximum at period/4).
	dropStart := period / 8
	dropEnd := dropStart + period/2

	fv, err := o.serveDiurnalRun(false, period, horizon, dropStart, dropEnd)
	if err != nil {
		return nil, err
	}
	un, err := o.serveDiurnalRun(true, period, horizon, dropStart, dropEnd)
	if err != nil {
		return nil, err
	}
	if fv.Offered != un.Offered {
		return nil, fmt.Errorf("experiments: traffic diverged across policies: %d vs %d offered", fv.Offered, un.Offered)
	}
	return &ServeDiurnalReport{
		PeriodSec:    period,
		HorizonSec:   horizon,
		DropStartSec: dropStart,
		DropEndSec:   dropEnd,
		FVSST:        fv,
		Uniform:      un,
	}, nil
}

// Outcomes returns the two policies in presentation order.
func (r *ServeDiurnalReport) Outcomes() []ServeDiurnalOutcome {
	return []ServeDiurnalOutcome{r.FVSST, r.Uniform}
}

// Render formats the report.
func (r *ServeDiurnalReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b,
		"Serve diurnal drop: 8-way node, 2 SLO classes, diurnal period %.1fs over %.1fs;\n"+
			"budget %.0fW, dropping to %.0fW across the demand peak t∈[%.2f,%.2f)s\n",
		r.PeriodSec, r.HorizonSec, serveBudgetW, serveDropW, r.DropStartSec, r.DropEndSec)
	for _, p := range r.Outcomes() {
		fmt.Fprintf(&b, "policy %s: offered %d, mean power %.0fW (drop window %.0fW)\n",
			p.Policy, p.Offered, p.MeanPowerW, p.DropPowerW)
		for _, w := range p.Drop {
			fmt.Fprintf(&b, "  drop+drain %-6s attainment %6.2f%% (%d/%d slo-ok, %d dropped)\n",
				w.Class, 100*w.Attainment, w.SLOOk, w.Resolved, w.Dropped)
		}
		b.WriteString(indent(p.Final.Render(), "  "))
	}
	return b.String()
}

// indent prefixes every non-empty line.
func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
