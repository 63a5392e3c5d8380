package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Ledger is a Sink that integrates a trace into the run's energy and
// compliance account: per-node and total Joules (power integrated over
// simulated time), budget and charged-power integrals, budget-overshoot
// seconds, Step-2 demotion counts, the online prediction-error summary,
// and (from span events) wall-clock pass-latency percentiles.
//
// Everything except the latency section derives from simulated
// timestamps and simulated power, so for a fixed seed the summary is
// byte-identical across runs — the property `experiments report` and
// fvsst-cluster's TestReportDeterministic pin. The latency section is
// wall-clock and excluded from deterministic comparisons.
type Ledger struct {
	mu    sync.Mutex
	nodes map[string]*nodeAcct

	// Budget/charged integration between schedule passes.
	schedSeen            bool
	lastSchedAt          float64
	lastBudgetW          float64
	lastChargedW         float64
	budgetJ, chargedJ    float64
	overshootS           float64
	overshootJ           float64
	peakOvershootW       float64
	passes, missedPasses int
	triggers             map[string]int
	demotions            int

	// Prediction accuracy (|relative IPC error|, one period late).
	predCount           int
	predAbsSum, predMax float64

	// Wall-clock pass latency from "pass" spans, capped.
	passDur []float64
}

// maxLatencySamples bounds the retained pass-latency samples; beyond it
// the percentiles describe the first window of the run, which is enough
// for the bounded-pass-latency evidence without unbounded growth.
const maxLatencySamples = 1 << 16

type nodeAcct struct {
	seen            bool
	firstAt, lastAt float64
	lastPowerW      float64
	joules          float64
	peakW           float64
	sumW            float64
	samples         int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{nodes: make(map[string]*nodeAcct), triggers: make(map[string]int)}
}

// Emit folds one event into the account.
func (l *Ledger) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e.Type {
	case EventQuantum:
		n, ok := l.nodes[e.Node]
		if !ok {
			n = &nodeAcct{}
			l.nodes[e.Node] = n
		}
		p := e.CPUPowerW
		if n.seen {
			if dt := e.At - n.lastAt; dt > 0 {
				// Right-rectangle rule on the previous sample: the power
				// reading held since the last quantum boundary.
				n.joules += n.lastPowerW * dt
			}
		} else {
			n.seen = true
			n.firstAt = e.At
		}
		n.lastAt = e.At
		n.lastPowerW = p
		if p > n.peakW {
			n.peakW = p
		}
		n.sumW += p
		n.samples++
	case EventSchedule:
		charged := e.ChargedW
		if charged == 0 {
			charged = e.TablePowerW
		}
		if l.schedSeen {
			if dt := e.At - l.lastSchedAt; dt > 0 {
				l.budgetJ += l.lastBudgetW * dt
				l.chargedJ += l.lastChargedW * dt
				if over := l.lastChargedW - l.lastBudgetW; over > 0 {
					l.overshootS += dt
					l.overshootJ += over * dt
				}
			}
		}
		l.schedSeen = true
		l.lastSchedAt = e.At
		l.lastBudgetW = e.BudgetW
		l.lastChargedW = charged
		if over := charged - e.BudgetW; over > l.peakOvershootW {
			l.peakOvershootW = over
		}
		l.passes++
		l.triggers[e.Trigger]++
		if e.BudgetMissed {
			l.missedPasses++
		}
		l.demotions += len(e.Demotions)
		for _, c := range e.CPUs {
			if !c.IPCErrorValid {
				continue
			}
			err := c.IPCError
			if err < 0 {
				err = -err
			}
			l.predCount++
			l.predAbsSum += err
			if err > l.predMax {
				l.predMax = err
			}
		}
	case EventSpan:
		if e.Span == SpanPass && len(l.passDur) < maxLatencySamples {
			l.passDur = append(l.passDur, e.DurS)
		}
	}
}

// NodeEnergy is one node's row of the energy section.
type NodeEnergy struct {
	Node    string  `json:"node"`
	Joules  float64 `json:"joules"`
	Seconds float64 `json:"seconds"`
	AvgW    float64 `json:"avg_w"`
	PeakW   float64 `json:"peak_w"`
}

// TriggerCount is one trigger's pass count.
type TriggerCount struct {
	Trigger string `json:"trigger"`
	Passes  int    `json:"passes"`
}

// LatencySummary is the wall-clock pass-latency section. Nondeterministic
// by nature; omitted from deterministic renderings.
type LatencySummary struct {
	Passes int     `json:"passes"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// LedgerSummary is the frozen account, JSON-renderable. Latency is nil
// when the latency section is deselected or no pass spans were seen.
type LedgerSummary struct {
	Nodes            []NodeEnergy    `json:"nodes,omitempty"`
	TotalJoules      float64         `json:"total_joules"`
	BudgetJoules     float64         `json:"budget_joules"`
	ChargedJoules    float64         `json:"charged_joules"`
	OvershootSeconds float64         `json:"overshoot_seconds"`
	OvershootJoules  float64         `json:"overshoot_joules"`
	PeakOvershootW   float64         `json:"peak_overshoot_w"`
	Passes           int             `json:"passes"`
	Triggers         []TriggerCount  `json:"triggers,omitempty"`
	MissedPasses     int             `json:"missed_passes"`
	Demotions        int             `json:"demotions"`
	PredSamples      int             `json:"pred_samples"`
	PredMeanAbsErr   float64         `json:"pred_mean_abs_err"`
	PredMaxAbsErr    float64         `json:"pred_max_abs_err"`
	Latency          *LatencySummary `json:"latency,omitempty"`
}

// Summary freezes the account. Node rows are name-sorted; the unnamed
// single-machine key renders as "(machine)". The total sums named nodes
// when any exist (the unnamed key is then an aggregate duplicate), else
// the unnamed row.
func (l *Ledger) Summary() LedgerSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LedgerSummary{
		BudgetJoules:     l.budgetJ,
		ChargedJoules:    l.chargedJ,
		OvershootSeconds: l.overshootS,
		OvershootJoules:  l.overshootJ,
		PeakOvershootW:   l.peakOvershootW,
		Passes:           l.passes,
		MissedPasses:     l.missedPasses,
		Demotions:        l.demotions,
		PredSamples:      l.predCount,
		PredMaxAbsErr:    l.predMax,
	}
	if l.predCount > 0 {
		s.PredMeanAbsErr = l.predAbsSum / float64(l.predCount)
	}
	names := make([]string, 0, len(l.nodes))
	named := false
	for n := range l.nodes {
		names = append(names, n)
		if n != "" {
			named = true
		}
	}
	sort.Strings(names)
	for _, name := range names {
		n := l.nodes[name]
		row := NodeEnergy{
			Node:    name,
			Joules:  n.joules,
			Seconds: n.lastAt - n.firstAt,
			PeakW:   n.peakW,
		}
		if name == "" {
			row.Node = "(machine)"
		}
		if n.samples > 0 {
			row.AvgW = n.sumW / float64(n.samples)
		}
		s.Nodes = append(s.Nodes, row)
		if name != "" || !named {
			s.TotalJoules += n.joules
		}
	}
	for t, c := range l.triggers {
		s.Triggers = append(s.Triggers, TriggerCount{Trigger: t, Passes: c})
	}
	sort.Slice(s.Triggers, func(i, j int) bool { return s.Triggers[i].Trigger < s.Triggers[j].Trigger })
	if len(l.passDur) > 0 {
		d := append([]float64(nil), l.passDur...)
		sort.Float64s(d)
		q := func(p float64) float64 {
			i := int(p*float64(len(d))+0.5) - 1
			if i < 0 {
				i = 0
			}
			if i >= len(d) {
				i = len(d) - 1
			}
			return d[i] * 1e3
		}
		s.Latency = &LatencySummary{
			Passes: len(d),
			P50Ms:  q(0.50),
			P95Ms:  q(0.95),
			P99Ms:  q(0.99),
			MaxMs:  d[len(d)-1] * 1e3,
		}
	}
	return s
}

// Report sections, for LedgerSummary.WriteText and the `experiments
// report -sections` flag.
const (
	SectionEnergy     = "energy"
	SectionCompliance = "compliance"
	SectionPrediction = "prediction"
	SectionLatency    = "latency"
)

// AllSections lists every report section in render order.
var AllSections = []string{SectionEnergy, SectionCompliance, SectionPrediction, SectionLatency}

// ParseSections parses a comma-separated section list ("all" or "" for
// everything), preserving render order and rejecting unknown names.
func ParseSections(spec string) ([]string, error) {
	if spec == "" || spec == "all" {
		return AllSections, nil
	}
	want := make(map[string]bool)
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		ok := false
		for _, known := range AllSections {
			if s == known {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("obs: unknown report section %q (have %s)", s, strings.Join(AllSections, ", "))
		}
		want[s] = true
	}
	var out []string
	for _, s := range AllSections {
		if want[s] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Filter returns a copy restricted to the given sections: deselecting
// latency nils the Latency pointer so both the text and JSON renderings
// stay deterministic.
func (s LedgerSummary) Filter(sections []string) LedgerSummary {
	has := func(name string) bool {
		for _, x := range sections {
			if x == name {
				return true
			}
		}
		return false
	}
	out := s
	if !has(SectionEnergy) {
		out.Nodes = nil
		out.TotalJoules, out.BudgetJoules, out.ChargedJoules = 0, 0, 0
	}
	if !has(SectionLatency) {
		out.Latency = nil
	}
	return out
}

// WriteText renders the selected sections as a fixed-precision text
// report. All fixed-precision simulated quantities, so equal accounts
// render equal bytes.
func (s LedgerSummary) WriteText(w io.Writer, sections []string) error {
	bw := bufio.NewWriter(w)
	for _, sec := range sections {
		switch sec {
		case SectionEnergy:
			fmt.Fprintf(bw, "energy\n")
			for _, n := range s.Nodes {
				fmt.Fprintf(bw, "  %-12s %12.3f J over %8.3f s  avg %8.2f W  peak %8.2f W\n",
					n.Node, n.Joules, n.Seconds, n.AvgW, n.PeakW)
			}
			fmt.Fprintf(bw, "  %-12s %12.3f J  (budget integral %.3f J, charged integral %.3f J)\n",
				"total", s.TotalJoules, s.BudgetJoules, s.ChargedJoules)
		case SectionCompliance:
			fmt.Fprintf(bw, "compliance\n")
			fmt.Fprintf(bw, "  passes %d (missed-budget %d)", s.Passes, s.MissedPasses)
			for _, t := range s.Triggers {
				fmt.Fprintf(bw, "  %s=%d", t.Trigger, t.Passes)
			}
			fmt.Fprintf(bw, "\n")
			fmt.Fprintf(bw, "  demotions %d\n", s.Demotions)
			fmt.Fprintf(bw, "  overshoot %.3f s, %.3f J, peak %.2f W over budget\n",
				s.OvershootSeconds, s.OvershootJoules, s.PeakOvershootW)
		case SectionPrediction:
			fmt.Fprintf(bw, "prediction\n")
			fmt.Fprintf(bw, "  samples %d  mean |err| %.4f  max |err| %.4f\n",
				s.PredSamples, s.PredMeanAbsErr, s.PredMaxAbsErr)
		case SectionLatency:
			fmt.Fprintf(bw, "latency (wall-clock, nondeterministic)\n")
			if s.Latency == nil {
				fmt.Fprintf(bw, "  no pass spans in trace\n")
			} else {
				fmt.Fprintf(bw, "  passes %d  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
					s.Latency.Passes, s.Latency.P50Ms, s.Latency.P95Ms, s.Latency.P99Ms, s.Latency.MaxMs)
			}
		}
	}
	return bw.Flush()
}

// ReplayJSONL decodes a JSONL trace stream and emits every event into
// the sink, returning the event count. Lines that do not decode fail
// the replay — a truncated trace should be loud, not silently short
// (the binaries flush-and-close their writers on every exit path for
// exactly this reason).
func ReplayJSONL(r io.Reader, sink Sink) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return n, fmt.Errorf("obs: trace line %d: %w", n+1, err)
		}
		sink.Emit(e)
		n++
	}
	return n, sc.Err()
}
