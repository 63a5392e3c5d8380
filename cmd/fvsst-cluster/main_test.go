package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// eventLog is a trace sink that keeps every event in emission order.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// all returns a copy of the events so far.
func (l *eventLog) all() []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Event(nil), l.events...)
}

// TestAcceptanceScenario is the end-to-end check: three nodes on
// loopback, budget 900 W dropping to 600 W at t=1, node1 partitioned for
// two simulated seconds. The run must complete, the charged power must
// never exceed the budget, and the partitioned node must degrade and
// rejoin with both transitions in the trace output.
func TestAcceptanceScenario(t *testing.T) {
	o := options{
		nodes:        3,
		scheduleSpec: "900,1:600",
		partition:    1,
		partitionAt:  0.5,
		partitionFor: 2,
		duration:     4,
		epsilon:      0.05,
		scale:        0.5,
		seed:         1,
		missK:        3,
		rpcTimeout:   40 * time.Millisecond,
		lease:        800 * time.Millisecond,
		logEvery:     5,
	}
	var out strings.Builder
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if res.violations != 0 {
		t.Errorf("charged power exceeded the budget in %d rounds\noutput:\n%s", res.violations, out.String())
	}
	if len(res.decisions) == 0 {
		t.Fatal("no decisions recorded")
	}
	if res.degrades < 1 || res.rejoins < 1 {
		t.Errorf("%d degrades and %d rejoins; want the partitioned node to leave and return", res.degrades, res.rejoins)
	}
	for _, st := range res.status {
		if st.Degraded {
			t.Errorf("%s still degraded at the end of the run", st.Name)
		}
	}
	first, last := res.decisions[0], res.decisions[len(res.decisions)-1]
	if first.Budget.W() != 900 || last.Budget.W() != 600 {
		t.Errorf("budget trajectory %v → %v, want 900W → 600W", first.Budget, last.Budget)
	}
	text := out.String()
	for _, want := range []string{"DEGRADE", "REJOIN", "PARTITION", "HEAL", "budget safety: 0 violations"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestBudgetScheduleFlag checks the one budget input: the default flags
// give the 900 W → 600 W drop at t=1, the header shows a non-default
// schedule's initial budget, and a malformed schedule is rejected.
func TestBudgetScheduleFlag(t *testing.T) {
	fs := flag.NewFlagSet("fvsst-cluster", flag.ContinueOnError)
	var o options
	bindFlags(fs, &o)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	o.nodes, o.partition, o.duration = 2, -1, 2
	o.rpcTimeout, o.lease = 40*time.Millisecond, 800*time.Millisecond
	var out strings.Builder
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if res.violations != 0 {
		t.Errorf("charged power exceeded the budget in %d rounds", res.violations)
	}
	for _, d := range res.decisions {
		want := 900.0
		if d.At >= 1 {
			want = 600
		}
		if d.Budget.W() != want {
			t.Errorf("default schedule: budget %v at t=%.2f, want %vW", d.Budget, d.At, want)
		}
	}

	o.relays, o.transport, o.duration = 1, "pipe", 0.5
	o.scheduleSpec = "1200,1:600"
	out.Reset()
	if _, err := run(o, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "budget 1200W") {
		t.Errorf("header does not show the schedule's initial 1200W:\n%s", out.String())
	}

	o.scheduleSpec = "garbage"
	if _, err := run(o, &strings.Builder{}); err == nil {
		t.Error("invalid -budget-schedule accepted")
	}
}

// TestTraceReconstructsPasses is the causal-tracing acceptance check: a
// seeded fault-free loopback run with -trace must produce a JSONL stream
// from which every scheduling pass is reconstructable end to end —
// schedule event, pass root span, the Figure-3 step children, and
// per-node rpc:counters/rpc:actuate spans with a non-negative
// queue/wire/apply latency breakdown — and which the ledger renders into
// the energy and compliance report `experiments report` prints.
func TestTraceReconstructsPasses(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	o := options{
		nodes:        2,
		scheduleSpec: "700",
		partition:    -1,
		duration:     1,
		epsilon:      0.05,
		scale:        0.5,
		seed:         3,
		missK:        3,
		rpcTimeout:   40 * time.Millisecond,
		lease:        800 * time.Millisecond,
		logEvery:     5,
		tracePath:    tracePath,
		metricsAddr:  "127.0.0.1:0",
	}
	var out strings.Builder
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "metrics endpoint listening on") {
		t.Errorf("output missing the endpoint address:\n%s", out.String())
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var log eventLog
	ledger := obs.NewLedger()
	if _, err := obs.ReplayJSONL(f, obs.Tee(&log, ledger)); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	if err := ledger.Summary().WriteText(&report, obs.AllSections); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"energy", "compliance", "overshoot"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}

	type passTree struct {
		schedule, root, steps int
		rpcCounters           map[string]int
		rpcActuate            map[string]int
	}
	passes := map[uint64]*passTree{}
	get := func(id uint64) *passTree {
		p := passes[id]
		if p == nil {
			p = &passTree{rpcCounters: map[string]int{}, rpcActuate: map[string]int{}}
			passes[id] = p
		}
		return p
	}
	for _, e := range log.all() {
		switch {
		case e.Type == obs.EventSchedule:
			get(e.PassID).schedule++
		case e.Type != obs.EventSpan:
			continue
		case e.Span == obs.SpanPass:
			get(e.PassID).root++
		case e.Span == obs.SpanGridFill, e.Span == obs.SpanStepOne, e.Span == obs.SpanStepTwo, e.Span == obs.SpanStepThree:
			get(e.PassID).steps++
		case e.Span == obs.SpanRPCCounters:
			get(e.PassID).rpcCounters[e.Node]++
		case e.Span == obs.SpanRPCActuate:
			get(e.PassID).rpcActuate[e.Node]++
		}
		if e.Type == obs.EventSpan && (e.DurS < 0 || e.QueueS < 0 || e.WireS < 0 || e.ApplyS < 0) {
			t.Errorf("pass %d span %s/%s has negative timing: %+v", e.PassID, e.Node, e.Span, e)
		}
	}
	rounds := len(res.decisions)
	if rounds == 0 {
		t.Fatal("no rounds")
	}
	for id := uint64(1); id <= uint64(rounds); id++ {
		p := passes[id]
		if p == nil {
			t.Fatalf("pass %d missing from the trace entirely", id)
		}
		if p.schedule != 1 || p.root != 1 || p.steps != 4 {
			t.Errorf("pass %d: %d schedule events, %d root spans, %d step spans; want 1/1/4", id, p.schedule, p.root, p.steps)
		}
		// Fault-free run: both nodes answer both RPCs every round.
		for _, node := range []string{"node0", "node1"} {
			if p.rpcCounters[node] != 1 || p.rpcActuate[node] != 1 {
				t.Errorf("pass %d node %s: %d counters + %d actuate rpc spans; want 1+1",
					id, node, p.rpcCounters[node], p.rpcActuate[node])
			}
		}
	}
	if got := uint64(len(passes)); got != uint64(rounds) {
		t.Errorf("trace holds %d pass IDs for %d rounds", got, rounds)
	}
}

// TestRelayTreeScenario drives the 2-level tree over the in-process pipe
// transport: budget drop mid-run, one relay
// partitioned and healed. Charged power must never exceed the budget
// (the frozen subtree is charged its last acknowledged draw) and every
// pass must report a latency.
func TestRelayTreeScenario(t *testing.T) {
	o := options{
		nodes:        6,
		relays:       2,
		transport:    "pipe",
		scheduleSpec: "1800,1:1200",
		partition:    1,
		partitionAt:  0.5,
		partitionFor: 1,
		duration:     3,
		epsilon:      0.05,
		scale:        0.5,
		seed:         1,
		missK:        3,
		rpcTimeout:   50 * time.Millisecond,
		logEvery:     5,
	}
	var out strings.Builder
	res, err := run(o, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if res.violations != 0 {
		t.Errorf("charged power exceeded the budget in %d rounds\noutput:\n%s", res.violations, out.String())
	}
	if len(res.decisions) == 0 {
		t.Fatal("no root decisions recorded")
	}
	if res.maxPass <= 0 {
		t.Error("no pass latency recorded")
	}
	if res.degrades < 1 || res.rejoins < 1 {
		t.Errorf("%d degrades and %d rejoins; want the partitioned relay to leave and return", res.degrades, res.rejoins)
	}
	for _, st := range res.status {
		if st.Degraded {
			t.Errorf("%s still degraded at the end of the run", st.Name)
		}
	}
	first, last := res.decisions[0], res.decisions[len(res.decisions)-1]
	if first.Budget.W() != 1800 || last.Budget.W() != 1200 {
		t.Errorf("budget trajectory %v → %v, want 1800W → 1200W", first.Budget, last.Budget)
	}
	text := out.String()
	// The root's deadline is derived, not the flag: 3 attempts of dial,
	// hello and request at 50 ms each plus 2 backoffs of at most 250 ms.
	for _, want := range []string{"root deadline 950ms", "PARTITION relay1", "HEAL", "peak pass latency", "budget safety: 0 violations", "binary frames"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := run(options{nodes: 0}, &strings.Builder{}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := run(options{nodes: 2, partition: 5}, &strings.Builder{}); err == nil {
		t.Error("out-of-range partition target accepted")
	}
}
