// Command fvsst-cluster runs the networked cluster control plane on
// loopback: it spawns N node agents — each wrapping a simulated SMP and
// serving the wire protocol over TCP — and one coordinator enforcing a
// global power budget across them, then drives a fault scenario through
// the deterministic faultnet fabric: the budget drops mid-run and one
// node is partitioned away and rejoins.
//
// Usage examples:
//
//	fvsst-cluster
//	fvsst-cluster -nodes 3 -budget-schedule 900,1:600 \
//	    -partition 1 -partition-at 0.5 -partition-for 2 -duration 4
//	fvsst-cluster -budget-schedule "900,1:600,3:0.75kW"
//	fvsst-cluster -trace out.jsonl -metrics out.prom -seed 7
//	experiments report out.jsonl
//
// Times are simulated seconds. The run prints every scheduling decision
// of interest (budget changes, degraded rounds, every -log-every'th
// timer round), every degrade/rejoin/failsafe transition, and a budget
// safety summary: the run fails if the power charged against the budget
// — live assignments plus worst-case reservations for silent nodes —
// ever exceeds it. -trace writes every decision and transition as JSONL,
// from which `experiments report` renders the energy & compliance
// ledger; -metrics and -metrics-addr expose the transport metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/netcluster"
	"repro/internal/netcluster/faultnet"
	"repro/internal/netcluster/proto"
	"repro/internal/netcluster/wire"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/workload"
)

// options is the flag set, separated from main so tests can drive runs.
type options struct {
	nodes        int
	cpus         int
	scheduleSpec string
	partition    int
	partitionAt  float64
	partitionFor float64
	duration     float64
	epsilon      float64
	scale        float64
	seed         int64
	missK        int
	rpcTimeout   time.Duration
	lease        time.Duration
	logEvery     int
	relays       int
	transport    string
	maxPassLat   time.Duration
	tracePath    string
	metricsPath  string
	metricsAddr  string
}

// result summarises a run for the safety check and the smoke test.
type result struct {
	// decisions holds one header per round run, flat or hierarchical.
	decisions  []netcluster.Round
	status     []netcluster.NodeStatus
	violations int
	degrades   int
	rejoins    int
	maxPass    time.Duration
}

// transitionLog prints and counts degrade/rejoin/failsafe events as they
// happen.
type transitionLog struct {
	w        io.Writer
	degrades int
	rejoins  int
}

func (l *transitionLog) Emit(e obs.Event) {
	switch e.Type {
	case obs.EventDegrade:
		l.degrades++
	case obs.EventRejoin:
		l.rejoins++
	case obs.EventFailsafe:
	default:
		return
	}
	fmt.Fprintf(l.w, "t=%.2f  %-8s %-6s %s\n", e.At, strings.ToUpper(e.Type), e.Node, e.Detail)
}

// apps rotate across the cluster's CPUs so every node carries a mixed
// load.
var apps = []string{"gzip", "mcf", "gap", "health"}

// buildAgents spawns the node agents and makes each reachable: registered
// on the pipe dialer under its name (no listener) when there is one, on
// loopback TCP otherwise.
func buildAgents(o options, sink obs.Sink, pd *netcluster.PipeDialer) ([]*netcluster.Agent, []netcluster.NodeSpec, error) {
	agents := make([]*netcluster.Agent, o.nodes)
	specs := make([]netcluster.NodeSpec, o.nodes)
	for i := 0; i < o.nodes; i++ {
		mcfg := machine.P630Config()
		mcfg.Seed = o.seed + int64(i)
		if o.cpus > 0 {
			mcfg.NumCPUs = o.cpus
		}
		m, err := machine.New(mcfg)
		if err != nil {
			return nil, nil, err
		}
		for cpu := 0; cpu < mcfg.NumCPUs; cpu++ {
			prog, err := workload.App(apps[(i+cpu)%len(apps)], workload.AppScale(o.scale))
			if err != nil {
				return nil, nil, err
			}
			mix, err := workload.NewMix(prog)
			if err != nil {
				return nil, nil, err
			}
			if err := m.SetMix(cpu, mix); err != nil {
				return nil, nil, err
			}
		}
		name := fmt.Sprintf("node%d", i)
		a, err := netcluster.NewAgent(netcluster.AgentConfig{
			Name:          name,
			M:             m,
			FailsafeLease: o.lease,
			Sink:          sink,
		})
		if err != nil {
			return nil, nil, err
		}
		agents[i] = a
		if specs[i], err = a.Listen(pd); err != nil {
			return nil, nil, err
		}
	}
	return agents, specs, nil
}

func run(o options, out io.Writer) (result, error) {
	var res result
	if o.nodes < 1 {
		return res, fmt.Errorf("need at least one node")
	}
	switch o.transport {
	case "":
		o.transport = "tcp"
	case "tcp", "pipe":
	default:
		return res, fmt.Errorf("-transport must be tcp or pipe, not %q", o.transport)
	}
	if o.relays > 0 {
		if o.relays > o.nodes {
			return res, fmt.Errorf("%d relays for %d nodes", o.relays, o.nodes)
		}
		if o.partition >= o.relays {
			return res, fmt.Errorf("partition target %d out of range for %d relays (relay mode partitions root↔relay links)", o.partition, o.relays)
		}
	} else if o.partition >= o.nodes {
		return res, fmt.Errorf("partition target %d out of range for %d nodes", o.partition, o.nodes)
	}

	metrics := netcluster.NewMetrics()
	outs, err := obs.OpenOutputs(out, metrics.Registry, o.tracePath, o.metricsPath, o.metricsAddr)
	if err != nil {
		return res, err
	}
	defer outs.Close()
	transitions := &transitionLog{w: out}
	sink := obs.Tee(transitions, outs.Trace())

	wireStats := &wire.Stats{}
	var pd *netcluster.PipeDialer
	if o.transport == "pipe" {
		pd = netcluster.NewPipeDialer(wireStats)
	}
	agents, specs, err := buildAgents(o, sink, pd)
	if err != nil {
		return res, err
	}
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()

	if err := runFleet(o, out, sink, metrics, wireStats, pd, specs, &res); err != nil {
		return res, err
	}
	res.degrades = transitions.degrades
	res.rejoins = transitions.rejoins
	return res, outs.Finish()
}

// drive is the run loop: cut and heal the partition target on the fabric,
// step one round, count budget violations and log the rounds of interest
// (budget changes, degraded rounds, every -log-every'th timer round). It
// returns the peak charged/budget ratio for the summary.
func drive(o options, out io.Writer, fabric *faultnet.Network, partitionName string, fleet *netcluster.Fleet, res *result) (float64, error) {
	partitionEnd := o.partitionAt + o.partitionFor
	cut := false
	timerRounds := 0
	worst := 0.0
	for fleet.Now() < o.duration {
		t := fleet.Now()
		if partitionName != "" {
			if !cut && t >= o.partitionAt && t < partitionEnd {
				fabric.Partition(partitionName)
				cut = true
				fmt.Fprintf(out, "t=%.2f  PARTITION %s cut off\n", t, partitionName)
			}
			if cut && t >= partitionEnd {
				fabric.Heal(partitionName)
				cut = false
				fmt.Fprintf(out, "t=%.2f  HEAL     %s reachable again\n", t, partitionName)
			}
		}
		d, err := fleet.RunRound()
		if err != nil {
			return worst, err
		}
		res.decisions = append(res.decisions, d)
		res.maxPass = max(res.maxPass, d.PassDur)
		if d.Charged > d.Budget {
			res.violations++
		}
		worst = max(worst, d.Charged.W()/d.Budget.W())
		interesting := d.Trigger != "timer" || len(d.Degraded) > 0 || d.Charged > d.Budget
		if d.Trigger == "timer" {
			timerRounds++
		}
		if interesting || (o.logEvery > 0 && timerRounds%o.logEvery == 0) {
			pass := ""
			if o.relays > 0 {
				pass = fmt.Sprintf(" pass=%v", d.PassDur.Round(time.Microsecond))
			}
			degraded := ""
			if len(d.Degraded) > 0 {
				degraded = "  degraded=" + strings.Join(d.Degraded, ",")
			}
			fmt.Fprintf(out, "t=%.2f  %-13s budget=%v charged=%v reserved=%v met=%v%s%s\n",
				d.At, d.Trigger, d.Budget, d.Charged, d.Reserved, d.BudgetMet, pass, degraded)
		}
	}
	return worst, nil
}

// summarize prints the end-of-run status table (res.status) and the
// budget-safety line.
func summarize(o options, out io.Writer, end float64, worst float64, res *result) {
	rounds := len(res.decisions)
	latency, width := "", 6
	if o.relays > 0 {
		latency, width = fmt.Sprintf("; peak pass latency %v", res.maxPass.Round(time.Microsecond)), 8
	}
	fmt.Fprintf(out, "\nfinished at t=%.2fs after %d rounds%s\n", end, rounds, latency)
	for _, st := range res.status {
		state := "ok"
		if st.Degraded {
			state = "DEGRADED"
		}
		fmt.Fprintf(out, "  %-*s %-8s charge-if-silent %v\n", width, st.Name, state, st.ChargedIfSilent)
	}
	fmt.Fprintf(out, "budget safety: %d violations across %d rounds; peak charged/budget %.0f%%\n",
		res.violations, rounds, 100*worst)
}

// runFleet drives the agents through one flat coordinator (the original
// topology: every agent a direct child) or, with -relays, a 2-level tree:
// contiguous groups of nodes each behind a relay (agent protocol upward,
// coordinator protocol downward) under one root dividing the global
// budget across the relays' aggregated demand curves. The fault fabric
// sits on the top tier's links, so in a tree the partition flag targets a
// relay: cutting a root↔relay link freezes a whole subtree, which the
// root charges at its last acknowledged draw.
func runFleet(o options, out io.Writer, sink obs.Sink, metrics *netcluster.Metrics, stats *wire.Stats, pd *netcluster.PipeDialer, specs []netcluster.NodeSpec, res *result) error {
	fcfg := fvsst.DefaultConfig()
	fcfg.Epsilon = o.epsilon
	fcfg.UseIdleSignal = true
	// The seeded fault fabric over the selected transport; every connection
	// shares the run's codec counters.
	fabric := faultnet.New(o.seed + 1000)
	if pd != nil {
		fabric.SetTransport(pd.DialTransport)
	} else {
		fabric.SetTransport(func(addr string, timeout time.Duration) (proto.Conn, error) {
			return wire.DialStats(addr, timeout, stats)
		})
	}
	sched, err := power.ParseScheduleSpec(o.scheduleSpec)
	if err != nil {
		return fmt.Errorf("-budget-schedule: %w", err)
	}
	budget := sched.BudgetAt(0)
	// A relay's sub-coordinator reaches its agents directly — no fault
	// fabric, sink or metrics — and its budget arrives by grant.
	sub := netcluster.Config{
		Fvsst:      fcfg,
		Budget:     budget,
		MissK:      o.missK,
		RPCTimeout: o.rpcTimeout,
		Dialer:     &netcluster.TCPDialer{Stats: stats},
	}
	if pd != nil {
		sub.Dialer = pd
	}
	top := sub
	top.Seed, top.Dialer = o.seed, fabric
	top.Sink, top.Metrics, top.WireStats = sink, metrics, stats
	top.Source = sched
	fleet, err := netcluster.NewFleet(specs, o.relays, pd, func(name string, group int) netcluster.Config {
		c := top
		if group >= 0 {
			c = sub
			c.Seed = o.seed + int64(group) + 1
		}
		c.Name = name
		return c
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	partitionName := ""
	if o.partition >= 0 {
		partitionName = fleet.Status()[o.partition].Name
	}
	if o.relays > 0 {
		// NewFleet's rule: the root outwaits a relay whose leaf costs it
		// every timeout and retry it has.
		fmt.Fprintf(out, "%d nodes up behind %d relays (%s transport, root deadline %v); budget %.0fW; seed %d\n",
			o.nodes, o.relays, o.transport, max(top.RPCTimeout, sub.WorstCasePhase()), budget.W(), o.seed)
	} else {
		fmt.Fprintf(out, "%d nodes up; budget %.0fW; seed %d\n", o.nodes, budget.W(), o.seed)
	}
	worst, err := drive(o, out, fabric, partitionName, fleet, res)
	if err != nil {
		return err
	}
	res.status = fleet.Status()
	summarize(o, out, fleet.Now(), worst, res)
	if o.relays > 0 {
		snap := stats.Snapshot()
		fmt.Fprintf(out, "wire: %d binary frames out, %d in; %d delta reports received\n",
			snap.BinFramesOut, snap.BinFramesIn, snap.DeltaIn)
	}
	return nil
}

// bindFlags registers the command line on fs, writing into o.
func bindFlags(fs *flag.FlagSet, o *options) {
	fs.IntVar(&o.nodes, "nodes", 3, "number of node agents to spawn")
	fs.IntVar(&o.cpus, "cpus", 0, "CPUs per node (0 = machine config default)")
	fs.IntVar(&o.relays, "relays", 0, "relay coordinators in a 2-level tree (0 = flat single coordinator)")
	fs.StringVar(&o.transport, "transport", "tcp", "agent transport: tcp sockets or in-process pipes (pipe scales past fd limits)")
	fs.DurationVar(&o.maxPassLat, "max-pass-latency", 0, "fail the run if any relay-tree pass exceeds this wall-clock latency (0 = report only)")
	fs.StringVar(&o.scheduleSpec, "budget-schedule", "900,1:600", `global CPU power budget over time "W0,t1:W1,..." (watts at simulated seconds)`)
	fs.IntVar(&o.partition, "partition", 1, "node index to partition (-1 = none)")
	fs.Float64Var(&o.partitionAt, "partition-at", 0.5, "simulated time the partition starts")
	fs.Float64Var(&o.partitionFor, "partition-for", 2, "simulated seconds the partition lasts")
	fs.Float64Var(&o.duration, "duration", 4, "simulated seconds to run")
	fs.Float64Var(&o.epsilon, "epsilon", 0.05, "acceptable performance loss ε")
	fs.Float64Var(&o.scale, "scale", 0.5, "workload scale")
	fs.Int64Var(&o.seed, "seed", 1, "scenario seed (machines, fault fabric, retry jitter)")
	fs.IntVar(&o.missK, "miss-k", 3, "consecutive missed rounds before a node is marked degraded")
	fs.DurationVar(&o.rpcTimeout, "rpc-timeout", 100*time.Millisecond, "per-attempt RPC deadline")
	fs.DurationVar(&o.lease, "lease", time.Second, "agent failsafe lease (0 disables the watchdog)")
	fs.IntVar(&o.logEvery, "log-every", 5, "print every n-th routine timer decision")
	fs.StringVar(&o.tracePath, "trace", "", "write one JSONL trace event per decision/transition to this file")
	fs.StringVar(&o.metricsPath, "metrics", "", "write Prometheus text-format transport metrics to this file at exit")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve a live Prometheus /metrics endpoint on this address (e.g. :9090)")
}

func main() {
	var o options
	bindFlags(flag.CommandLine, &o)
	flag.Parse()

	res, err := run(o, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if res.violations > 0 {
		log.Fatalf("budget safety violated in %d rounds", res.violations)
	}
	if o.maxPassLat > 0 && res.maxPass > o.maxPassLat {
		log.Fatalf("peak pass latency %v exceeds -max-pass-latency %v", res.maxPass, o.maxPassLat)
	}
}
