package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/fvsst"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/units"
)

// MissK is the consecutive-miss threshold at which a node is marked
// degraded, shared by the in-process mirror and the netcluster driver so
// their degrade/rejoin edges coincide.
const MissK = 2

// SabotageStepTwoInvert rewrites each pass to what Step 2 would return
// with its loss comparison inverted — the deliberate bug the acceptance
// criteria plant to prove the checkers catch it. The production algorithm
// is untouched; the sabotage is a post-pass rewrite inside this package.
const SabotageStepTwoInvert = "step2-invert"

// Options tunes a driver run.
type Options struct {
	// Sabotage optionally plants a known bug ("" or SabotageStepTwoInvert).
	Sabotage string
	// Sink, when set, receives the run's trace events: one schedule event
	// and span tree per round plus per-node quantum power samples. The
	// soak harness re-runs a violating seed with a JSONL trace here, so
	// it ships its own post-mortem. Events never influence the
	// deterministic Hash.
	Sink obs.Sink
	// MeasureGap solves every feasible pass exactly (internal/optimal)
	// and aggregates actual-vs-optimal loss into RunResult.Gap.
	MeasureGap bool
}

// ServeTrace is one node's serving account at the end of a round
// (serving scenarios only): the cumulative request counters plus the
// instantaneous backlog, rendered into the canonical trace so the
// determinism check covers the serving layer byte for byte.
type ServeTrace struct {
	Node      string `json:"node"`
	Offered   uint64 `json:"offered"`
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Dropped   uint64 `json:"dropped"`
	Completed uint64 `json:"completed"`
	TimedOut  uint64 `json:"timed_out"`
	Backlog   int    `json:"backlog"`
}

// ProcTrace is one CPU's slice of a round trace.
type ProcTrace struct {
	Node       string  `json:"node"`
	CPU        int     `json:"cpu"`
	Idle       bool    `json:"idle"`
	DesiredMHz float64 `json:"desired_mhz"`
	ActualMHz  float64 `json:"actual_mhz"`
	VoltageV   float64 `json:"voltage_v"`
}

// RoundTrace is the canonical record of one scheduling round, identical
// in shape for the in-process mirror and the networked coordinator so
// the differential harness can compare them line by line.
type RoundTrace struct {
	Round     int          `json:"round"`
	At        float64      `json:"at"`
	Trigger   string       `json:"trigger"`
	BudgetW   float64      `json:"budget_w"`
	LiveW     float64      `json:"live_w"`
	ReservedW float64      `json:"reserved_w"`
	ChargedW  float64      `json:"charged_w"`
	Met       bool         `json:"met"`
	Degraded  []string     `json:"degraded,omitempty"`
	Procs     []ProcTrace  `json:"procs"`
	Serve     []ServeTrace `json:"serve,omitempty"`
}

// appendTo appends the round as deterministic text lines. Floats use Go's
// shortest exact formatting ('g', -1: what %v prints), so equal traces
// render equal text and differing bits always show.
func (r RoundTrace) appendTo(b []byte) []byte {
	b = appendInt(b, "r=", r.Round)
	b = appendFloat(b, " t=", r.At)
	b = append(append(b, " trig="...), r.Trigger...)
	b = appendFloat(b, " budget=", r.BudgetW)
	b = appendFloat(b, " live=", r.LiveW)
	b = appendFloat(b, " reserved=", r.ReservedW)
	b = appendFloat(b, " charged=", r.ChargedW)
	b = appendBool(b, " met=", r.Met)
	b = append(b, " deg="...)
	for i, d := range r.Degraded {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, d...)
	}
	b = append(b, '\n')
	for _, p := range r.Procs {
		b = append(append(b, "  "...), p.Node...)
		b = appendInt(b, "/cpu", p.CPU)
		b = appendBool(b, " idle=", p.Idle)
		b = appendFloat(b, " des=", p.DesiredMHz)
		b = appendFloat(b, " act=", p.ActualMHz)
		b = appendFloat(b, " v=", p.VoltageV)
		b = append(b, '\n')
	}
	for _, sv := range r.Serve {
		b = append(append(append(b, "  "...), sv.Node...), " serve"...)
		b = appendUint(b, " off=", sv.Offered)
		b = appendUint(b, " adm=", sv.Admitted)
		b = appendUint(b, " rej=", sv.Rejected)
		b = appendUint(b, " drop=", sv.Dropped)
		b = appendUint(b, " done=", sv.Completed)
		b = appendUint(b, " to=", sv.TimedOut)
		b = appendInt(b, " bl=", sv.Backlog)
		b = append(b, '\n')
	}
	return b
}

// equal reports whether r and o render to the same bytes under appendTo,
// without rendering either. Strings, ints and bools must match; floats
// must have equal bits or both be NaN, because 'g' prints every NaN as
// "NaN", -0 as "-0", and any other two bit patterns differently.
func (r RoundTrace) equal(o RoundTrace) bool {
	if r.Round != o.Round || r.Trigger != o.Trigger || r.Met != o.Met ||
		!sameFloat(r.At, o.At) || !sameFloat(r.BudgetW, o.BudgetW) || !sameFloat(r.LiveW, o.LiveW) ||
		!sameFloat(r.ReservedW, o.ReservedW) || !sameFloat(r.ChargedW, o.ChargedW) ||
		!slices.Equal(r.Degraded, o.Degraded) || !slices.Equal(r.Serve, o.Serve) || len(r.Procs) != len(o.Procs) {
		return false
	}
	for i, p := range r.Procs {
		q := o.Procs[i]
		if p.Node != q.Node || p.CPU != q.CPU || p.Idle != q.Idle || !sameFloat(p.DesiredMHz, q.DesiredMHz) ||
			!sameFloat(p.ActualMHz, q.ActualMHz) || !sameFloat(p.VoltageV, q.VoltageV) {
			return false
		}
	}
	return true
}

func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y
}

func appendFloat(b []byte, key string, x float64) []byte {
	return strconv.AppendFloat(append(b, key...), x, 'g', -1, 64)
}

func appendInt(b []byte, key string, x int) []byte {
	return strconv.AppendInt(append(b, key...), int64(x), 10)
}

func appendUint(b []byte, key string, x uint64) []byte {
	return strconv.AppendUint(append(b, key...), x, 10)
}

func appendBool(b []byte, key string, x bool) []byte {
	return strconv.AppendBool(append(b, key...), x)
}

// RunResult is one driver run: the canonical trace, its hash, and every
// invariant violation the checkers found.
type RunResult struct {
	Rounds     int                   `json:"rounds"`
	Trace      []RoundTrace          `json:"-"`
	Hash       string                `json:"hash"`
	Violations []invariant.Violation `json:"violations,omitempty"`
	// MaxPassLatencyS is the slowest root pass in seconds (relay driver
	// only); outside the rendered trace, so it never perturbs Hash.
	MaxPassLatencyS float64 `json:"max_pass_latency_s,omitempty"`
	// Gap aggregates exact-comparator measurements when MeasureGap is on.
	Gap *OptGapStats `json:"gap,omitempty"`

	// digests[r] is the SHA-256 of every value the invariant suite reads
	// in round r (runCluster only; see roundDigest). Outside Hash.
	digests [][sha256.Size]byte
	// fingerprint is RunFarm's pass history, one line per reallocation
	// pass, and Hash is taken over it. The farm job compares a replay's
	// with it line by line.
	fingerprint []byte
}

// render sets Hash: the SHA-256 of the trace rendered by appendTo,
// streamed a round at a time.
func (res *RunResult) render() {
	h := sha256.New()
	var b []byte
	for _, r := range res.Trace {
		b = r.appendTo(b[:0])
		h.Write(b)
	}
	res.Hash = hex.EncodeToString(h.Sum(nil)[:8])
}

// roundDigest accumulates one round's checker inputs in a fixed binary
// layout and keeps one SHA-256 per round. The checkers are pure functions
// of these values and of the scheduler config, which the spec and Options
// fix, so two runs with equal digests would get equal verdicts: one of
// them need not run the suite.
type roundDigest struct {
	b    []byte
	sums [][sha256.Size]byte
}

func (d *roundDigest) putFloat(x float64) {
	d.b = binary.LittleEndian.AppendUint64(d.b, math.Float64bits(x))
}

func (d *roundDigest) putUint(x uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, x) }

func (d *roundDigest) putInt(x int) { d.putUint(uint64(x)) }

func (d *roundDigest) putBool(x bool) {
	if x {
		d.b = append(d.b, 1)
	} else {
		d.b = append(d.b, 0)
	}
}

func (d *roundDigest) putString(s string) {
	d.putInt(len(s))
	d.b = append(d.b, s...)
}

// pass feeds what passSnapshot hands the pass-level checkers.
func (d *roundDigest) pass(at float64, budget units.Power, inputs []cluster.ProcInput, pass cluster.PassResult) {
	d.putFloat(at)
	d.putFloat(budget.W())
	for k, in := range inputs {
		d.putString(in.Node)
		d.putInt(in.Proc.CPU)
		d.putBool(in.Idle)
		d.putBool(in.Obs != nil)
		if o := in.Obs; o != nil {
			d.putFloat(o.Freq.Hz())
			d.putFloat(o.Delta.Window)
			for _, c := range [...]uint64{o.Delta.Instructions, o.Delta.Cycles, o.Delta.HaltedCycles,
				o.Delta.L2Refs, o.Delta.L3Refs, o.Delta.MemRefs} {
				d.putUint(c)
			}
		}
		a := pass.Assignments[k]
		d.putFloat(a.Desired.Hz())
		d.putFloat(a.Actual.Hz())
		d.putFloat(a.Voltage.V())
	}
	d.putInt(len(pass.Demotions))
	for _, m := range pass.Demotions {
		d.putInt(m.CPU)
		d.putFloat(m.From.Hz())
		d.putFloat(m.To.Hz())
		d.putFloat(m.PredictedLoss)
	}
	d.putFloat(pass.TablePower.W())
	d.putBool(pass.BudgetMet)
}

func (d *roundDigest) ledger(l invariant.Ledger) {
	d.putFloat(l.At)
	for _, w := range [...]units.Power{l.Budget, l.Live, l.Reserved, l.Charged} {
		d.putFloat(w.W())
	}
	d.putBool(l.Met)
	d.putBool(l.AllLiveAtFloor)
}

func (d *roundDigest) queue(q invariant.QueueLedger) {
	d.putString(q.Node)
	d.putFloat(q.At)
	for _, c := range [...]uint64{q.Offered, q.Admitted, q.Rejected, q.Dropped, q.Completed, q.TimedOut} {
		d.putUint(c)
	}
	d.putInt(q.Queued)
	d.putInt(q.InService)
}

// endRound closes the round's digest.
func (d *roundDigest) endRound() {
	d.sums = append(d.sums, sha256.Sum256(d.b))
	d.b = d.b[:0]
}

// firstDigestDiff is the first round whose checker inputs differ between
// two runCluster runs, or -1 when every round's digest matches.
func firstDigestDiff(a, b *RunResult) int {
	for r := range max(len(a.digests), len(b.digests)) {
		if r >= len(a.digests) || r >= len(b.digests) || a.digests[r] != b.digests[r] {
			return r
		}
	}
	return -1
}

// diffClusterRuns is the one comparison of two runCluster runs of a spec,
// labelled la and lb: the soak's replay check and the quantum-vs-DES
// differential both call it. It compares the rounds by value with
// diffRuns, rendering only a round that differs, and when every round
// agrees, the checker-input digests, reporting the first round whose
// digest differs as a divergence too. Equal rounds render equal bytes,
// so an equivalent pair also hashes equal.
func diffClusterRuns(spec Spec, a, b *RunResult, la, lb string) *DiffResult {
	d := diffRuns(spec, a, b, la, lb, nil)
	if r := firstDigestDiff(a, b); r >= 0 && d.Equivalent {
		d.Divergences = append(d.Divergences, Divergence{Round: r, Detail: la + " and " + lb + " fed the checkers different inputs"})
		d.Equivalent = false
	}
	return d
}

// nodeRun is one node's live state inside the in-process driver.
type nodeRun struct {
	name     string
	m        *machine.Machine
	sampler  *counters.Sampler
	missed   int
	degraded bool
	// lastFreqs is the last actuation, rewritten in place each round the
	// node is live; nil until its first.
	lastFreqs []units.Frequency
	// st/feeder are set only for serving scenarios. A partitioned node's
	// machine freezes, so its streams hold matured arrivals until it
	// rejoins and the backlog lands as a burst.
	st     *serve.Station
	feeder *serve.Feeder
}

// RunCluster runs the scenario through cluster.Core in-process,
// mirroring the networked coordinator's round semantics exactly: the
// same budget trigger, the same counter windows, the same reserved
// worst-case charge for partitioned nodes, the same ledger — so its
// trace is directly comparable with RunNet's. Every pass and every
// round ledger runs under the invariant checkers. Live nodes cross
// quiet rounds on the machine's fast-forward path (see advanceNodeRound).
func RunCluster(spec Spec, opt Options) (*RunResult, error) {
	res, err := runCluster(spec, opt, false, true)
	if err != nil {
		return nil, err
	}
	res.render()
	return res, nil
}

// runCluster is RunCluster's round loop; stepped selects the per-quantum
// reference arm of advanceNodeRound and is true only under
// RunDESDifferential. With check false the run is digest-only: it skips
// the pass snapshot, the suite and Gap, and still records each
// round's checker-input digest, so a caller that also ran the same spec
// checked proves by comparing digests that this run would have been
// judged the same. The result is not rendered: a caller that reports
// Hash calls render.
func runCluster(spec Spec, opt Options, stepped, check bool) (*RunResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.Sabotage != "" && opt.Sabotage != SabotageStepTwoInvert {
		return nil, fmt.Errorf("scenario: unknown sabotage %q", opt.Sabotage)
	}
	fcfg, err := spec.fvsstConfig()
	if err != nil {
		return nil, err
	}
	core, err := cluster.NewCore(fcfg)
	if err != nil {
		return nil, err
	}
	source, ups, err := spec.source()
	if err != nil {
		return nil, err
	}
	table := fcfg.Table
	nodes := make([]*nodeRun, len(spec.Nodes))
	defer func() {
		for _, n := range nodes {
			if n != nil && n.st != nil {
				n.st.Release()
				n.feeder.Release()
			}
		}
	}()
	cpus := 0
	for i := range spec.Nodes {
		m, err := spec.newMachine(i, table)
		if err != nil {
			return nil, err
		}
		cpus += m.NumCPUs()
		// The round only ever reads the last SchedulePeriods deltas; the
		// depth is fvsst.NewScheduler's and cluster.New's.
		sampler, err := counters.NewSampler(m, 4*spec.SchedulePeriods)
		if err != nil {
			return nil, err
		}
		nodes[i] = &nodeRun{
			name:    fmt.Sprintf("n%d", i),
			m:       m,
			sampler: sampler,
		}
		if spec.Serving != nil {
			st, feeder, err := spec.newStation(i, m)
			if err != nil {
				return nil, err
			}
			nodes[i].st, nodes[i].feeder = st, feeder
		}
	}
	core.SetPhaseTiming(opt.Sink != nil)
	period := float64(spec.SchedulePeriods) * quantum
	clock := engine.NewSimClock(period)
	budget := source.BudgetAt(0)
	var suite *invariant.Suite // nil on a digest-only run
	if check {
		suite = invariant.DefaultSuite()
	}
	res := &RunResult{Rounds: spec.Rounds, Trace: make([]RoundTrace, 0, spec.Rounds)}
	if opt.MeasureGap && check {
		res.Gap = &OptGapStats{}
	}
	digest := roundDigest{sums: make([][sha256.Size]byte, 0, spec.Rounds)}

	// The poll's scratch lives for the whole run: nothing a round keeps
	// (its trace, its digest, the sink's events) points into it. Each
	// observed CPU's observation sits in observations at its input index.
	live := make([]bool, len(nodes))
	inputs := make([]cluster.ProcInput, 0, cpus)
	observations := make([]perfmodel.Observation, cpus)
	nodeInputs := make([][]int, len(nodes))

	for round := 0; round < spec.Rounds; round++ {
		now := clock.Now()
		var passStart time.Time
		if opt.Sink != nil {
			passStart = time.Now()
		}
		trigger := "timer"
		if want := source.BudgetAt(now); want != budget {
			budget = want
			trigger = "budget-change"
		}

		// Phase 1: poll. Partitioned nodes freeze (their machine does not
		// advance), exactly as a failed counter RPC leaves the remote
		// machine untouched.
		inputs = inputs[:0]
		var reserved units.Power
		for i, n := range nodes {
			live[i] = false
			nodeInputs[i] = nodeInputs[i][:0]
			if spec.partitioned(i, round) {
				n.missed++
				if n.missed >= MissK {
					n.degraded = true
				}
				reserved += worstCharge(n, table)
				continue
			}
			live[i] = true
			if err := advanceNodeRound(n, spec.SchedulePeriods, stepped); err != nil {
				return nil, err
			}
			for cpu := 0; cpu < n.m.NumCPUs(); cpu++ {
				in := cluster.ProcInput{
					Proc: cluster.ProcRef{Node: i, CPU: cpu},
					Node: n.name,
					Idle: n.m.IsIdle(cpu),
				}
				if o, ok := perfmodel.ObservationFrom(n.sampler.WindowAggregate(cpu, spec.SchedulePeriods)); ok {
					observations[len(inputs)] = o
					in.Obs = &observations[len(inputs)]
				}
				nodeInputs[i] = append(nodeInputs[i], len(inputs))
				inputs = append(inputs, in)
			}
		}

		// Phase 2: the shared global pass under the live budget.
		liveBudget := budget - reserved
		pass, err := core.Schedule(inputs, liveBudget)
		if err != nil {
			return nil, err
		}
		if opt.Sabotage == SabotageStepTwoInvert {
			sabotageStepTwoInvert(table, &pass, liveBudget)
		}

		// Phase 3: actuate the live nodes.
		for i, n := range nodes {
			if !live[i] {
				continue
			}
			if n.lastFreqs == nil {
				n.lastFreqs = make([]units.Frequency, len(nodeInputs[i]))
			}
			for cpu, idx := range nodeInputs[i] {
				n.lastFreqs[cpu] = pass.Assignments[idx].Actual
				if err := n.m.SetFrequency(cpu, n.lastFreqs[cpu]); err != nil {
					return nil, err
				}
			}
			n.missed = 0
			n.degraded = false
		}

		// Phase 4: the ledger, charged exactly as the coordinator does.
		var charged, liveCharged units.Power
		reserved = 0
		var degraded []string
		allLiveFloor := true
		for i, n := range nodes {
			if live[i] {
				var sum units.Power
				for _, idx := range nodeInputs[i] {
					p, err := table.PowerAt(pass.Assignments[idx].Actual)
					if err != nil {
						return nil, err
					}
					sum += p
					if table.IndexOf(pass.Assignments[idx].Actual) != 0 {
						allLiveFloor = false
					}
				}
				charged += sum
				liveCharged += sum
				continue
			}
			w := worstCharge(n, table)
			charged += w
			reserved += w
			if n.degraded {
				degraded = append(degraded, n.name)
			}
		}

		// Invariants: the pass itself, then the round ledger. The snapshot
		// also feeds the exact-gap measurement.
		digest.pass(now, liveBudget, inputs, pass)
		if suite != nil {
			p, err := passSnapshot(fcfg, now, liveBudget, inputs, pass)
			if err != nil {
				return nil, err
			}
			suite.Check(p)
			if res.Gap != nil {
				res.Gap.measure(p)
			}
		}
		ledger := invariant.Ledger{
			At:             now,
			Budget:         budget,
			Live:           liveCharged,
			Reserved:       reserved,
			Charged:        charged,
			Met:            charged <= budget,
			AllLiveAtFloor: allLiveFloor,
		}
		digest.ledger(ledger)
		if suite != nil {
			suite.Report(invariant.CheckLedger(ledger)...)
		}

		// Serving scenarios: the queue-conservation law per node per round,
		// plus a serve line in the canonical trace.
		var serves []ServeTrace
		if spec.Serving != nil {
			serves = make([]ServeTrace, 0, len(nodes))
			for _, n := range nodes {
				a := n.st.Account()
				q := invariant.QueueLedger{
					Node: n.name, At: now,
					Offered: a.Offered, Admitted: a.Admitted,
					Rejected: a.Rejected, Dropped: a.Dropped,
					Completed: a.Completed, TimedOut: a.TimedOut,
					Queued: a.Queued, InService: a.InService,
				}
				digest.queue(q)
				if suite != nil {
					suite.Report(invariant.CheckQueueConservation(q)...)
				}
				serves = append(serves, ServeTrace{
					Node: n.name, Offered: a.Offered, Admitted: a.Admitted,
					Rejected: a.Rejected, Dropped: a.Dropped,
					Completed: a.Completed, TimedOut: a.TimedOut,
					Backlog: a.Queued + a.InService,
				})
			}
		}

		// LiveW renders pass.TablePower (not the per-node regrouped sum):
		// both drivers compute it through the same flat accumulation in
		// core.Schedule, so the traces stay bit-comparable.
		rt := roundTrace(round, now, trigger, budget, pass.TablePower, reserved, charged, degraded, inputs, pass)
		rt.Serve = serves
		res.Trace = append(res.Trace, rt)
		digest.endRound()

		if opt.Sink != nil {
			passID := uint64(round + 1)
			ev := cluster.PassEvent(now, trigger, budget, inputs, pass)
			ev.PassID = passID
			ev.ChargedW = charged.W()
			ev.ReservedW = reserved.W()
			ev.HeadroomW = (budget - charged).W()
			ev.BudgetMissed = charged > budget
			opt.Sink.Emit(ev)
			var totalPower float64
			for i, n := range nodes {
				if !live[i] {
					continue
				}
				p := n.m.TotalCPUPower().W()
				totalPower += p
				opt.Sink.Emit(obs.Event{
					Type: obs.EventQuantum, At: now, PassID: passID,
					Node: n.name, CPUPowerW: p,
				})
			}
			opt.Sink.Emit(obs.Event{
				Type: obs.EventQuantum, At: now, PassID: passID,
				BudgetW: budget.W(), CPUPowerW: totalPower,
			})
			fvsst.EmitStepSpans(opt.Sink, now, passID, pass.Timings)
			opt.Sink.Emit(obs.SpanEvent(now, passID, "", obs.SpanPass, "", time.Since(passStart).Seconds()))
		}

		if ups != nil {
			if err := ups.Drain(charged, period); err != nil {
				return nil, err
			}
		}
		clock.Tick()
	}
	res.digests = digest.sums
	if suite != nil {
		res.Violations = suite.Violations()
	}
	return res, nil
}

// roundTrace renders the canonical per-round record from pass outputs.
func roundTrace(round int, at float64, trigger string, budget, live, reserved, charged units.Power, degraded []string, inputs []cluster.ProcInput, pass cluster.PassResult) RoundTrace {
	rt := RoundTrace{
		Round:     round,
		At:        at,
		Trigger:   trigger,
		BudgetW:   budget.W(),
		LiveW:     live.W(),
		ReservedW: reserved.W(),
		ChargedW:  charged.W(),
		Met:       charged <= budget,
		Degraded:  degraded,
		Procs:     make([]ProcTrace, len(pass.Assignments)),
	}
	for k, a := range pass.Assignments {
		rt.Procs[k] = ProcTrace{
			Node:       inputs[k].Node,
			CPU:        a.Proc.CPU,
			Idle:       a.Idle,
			DesiredMHz: a.Desired.MHz(),
			ActualMHz:  a.Actual.MHz(),
			VoltageV:   a.Voltage.V(),
		}
	}
	return rt
}

// passSnapshot converts a pass into the invariant checkers' shape.
func passSnapshot(cfg fvsst.Config, at float64, budget units.Power, inputs []cluster.ProcInput, pass cluster.PassResult) (*invariant.Pass, error) {
	procs := make([]invariant.Proc, len(inputs))
	for k, in := range inputs {
		a := pass.Assignments[k]
		procs[k] = invariant.Proc{
			Node:       in.Node,
			CPU:        in.Proc.CPU,
			Idle:       in.Idle,
			Obs:        in.Obs,
			DesiredIdx: cfg.Table.IndexOf(a.Desired),
			ActualIdx:  cfg.Table.IndexOf(a.Actual),
			Voltage:    a.Voltage,
		}
	}
	return invariant.NewPass(cfg, at, budget, procs, pass.Demotions, pass.TablePower, pass.BudgetMet)
}

// worstCharge mirrors the coordinator's silence charge: the table power
// of the node's last acknowledged actuation, else every CPU at the table
// maximum.
func worstCharge(n *nodeRun, table *power.Table) units.Power {
	if n.lastFreqs != nil {
		if p, err := fvsst.TotalTablePower(n.lastFreqs, table); err == nil {
			return p
		}
	}
	return units.Power(float64(n.m.NumCPUs())) * table.PowerAtIndex(table.Len()-1)
}

// sabotageStepTwoInvert presents the pass as Step 2 would with its loss
// comparison inverted (`<` flipped to `>` against the +Inf sentinel, the
// classic polarity bug): such a loop never finds a victim, so every
// processor stays at its desired frequency, nothing is logged, and the
// budget counts as met only if the desires happened to fit.
func sabotageStepTwoInvert(table *power.Table, pass *cluster.PassResult, budget units.Power) {
	var total units.Power
	for i := range pass.Assignments {
		a := &pass.Assignments[i]
		di := table.IndexOf(a.Desired)
		a.Actual = a.Desired
		a.Voltage = table.VoltageAtIndex(di)
		total += table.PowerAtIndex(di)
	}
	pass.Demotions = nil
	pass.TablePower = total
	pass.BudgetMet = total <= budget
}
