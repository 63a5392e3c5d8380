package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func feedLedger(l *Ledger) {
	// Two nodes sampled each second; right-rectangle integration means the
	// final sample's power is not yet charged.
	for i := 0; i < 5; i++ {
		l.Emit(Event{Type: EventQuantum, At: float64(i), Node: "a", CPUPowerW: 100})
		l.Emit(Event{Type: EventQuantum, At: float64(i), Node: "b", CPUPowerW: 50})
	}
	// Three passes 2 s apart: charged 160 W then 260 W against a 200 W
	// budget → one overshoot interval of 2 s × 60 W.
	l.Emit(Event{Type: EventSchedule, At: 0, Trigger: "startup", BudgetW: 200, ChargedW: 160,
		CPUs: []CPUTrace{{CPU: 0}}})
	l.Emit(Event{Type: EventSchedule, At: 2, Trigger: "timer", BudgetW: 200, ChargedW: 260, BudgetMissed: true,
		Demotions: []DemotionTrace{{CPU: 0}},
		CPUs:      []CPUTrace{{CPU: 0, IPCError: -0.1, IPCErrorValid: true}}})
	l.Emit(Event{Type: EventSchedule, At: 4, Trigger: "timer", BudgetW: 200, ChargedW: 180,
		CPUs: []CPUTrace{{CPU: 0, IPCError: 0.3, IPCErrorValid: true}}})
	l.Emit(Event{Type: EventSpan, At: 0, PassID: 1, Span: SpanPass, DurS: 0.002})
	l.Emit(Event{Type: EventSpan, At: 2, PassID: 2, Span: SpanPass, DurS: 0.004})
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	feedLedger(l)
	s := l.Summary()

	if len(s.Nodes) != 2 || s.Nodes[0].Node != "a" || s.Nodes[1].Node != "b" {
		t.Fatalf("nodes = %+v", s.Nodes)
	}
	if s.Nodes[0].Joules != 400 || s.Nodes[1].Joules != 200 {
		t.Errorf("joules = %v/%v, want 400/200", s.Nodes[0].Joules, s.Nodes[1].Joules)
	}
	if s.TotalJoules != 600 {
		t.Errorf("total = %v, want 600", s.TotalJoules)
	}
	if s.Nodes[0].AvgW != 100 || s.Nodes[0].PeakW != 100 || s.Nodes[0].Seconds != 4 {
		t.Errorf("node a row = %+v", s.Nodes[0])
	}
	// Budget integral: 200 W × 4 s. Charged: 160×2 + 260×2.
	if s.BudgetJoules != 800 || s.ChargedJoules != 840 {
		t.Errorf("budget/charged = %v/%v, want 800/840", s.BudgetJoules, s.ChargedJoules)
	}
	if s.OvershootSeconds != 2 || s.OvershootJoules != 120 || s.PeakOvershootW != 60 {
		t.Errorf("overshoot = %v s / %v J / %v W", s.OvershootSeconds, s.OvershootJoules, s.PeakOvershootW)
	}
	if s.Passes != 3 || s.MissedPasses != 1 || s.Demotions != 1 {
		t.Errorf("passes=%d missed=%d demotions=%d", s.Passes, s.MissedPasses, s.Demotions)
	}
	if len(s.Triggers) != 2 || s.Triggers[0].Trigger != "startup" || s.Triggers[1].Passes != 2 {
		t.Errorf("triggers = %+v", s.Triggers)
	}
	if s.PredSamples != 2 || s.PredMeanAbsErr != 0.2 || s.PredMaxAbsErr != 0.3 {
		t.Errorf("pred = %d/%v/%v", s.PredSamples, s.PredMeanAbsErr, s.PredMaxAbsErr)
	}
	if s.Latency == nil || s.Latency.Passes != 2 || s.Latency.MaxMs != 4 {
		t.Errorf("latency = %+v", s.Latency)
	}
}

// TestLedgerAggregateRow: a single-machine trace has only the unnamed
// quantum row; it must carry the total rather than be dropped — and when
// named nodes exist, the unnamed row is an aggregate duplicate that must
// not double-count.
func TestLedgerAggregateRow(t *testing.T) {
	l := NewLedger()
	l.Emit(Event{Type: EventQuantum, At: 0, CPUPowerW: 100})
	l.Emit(Event{Type: EventQuantum, At: 1, CPUPowerW: 100})
	if got := l.Summary().TotalJoules; got != 100 {
		t.Errorf("machine-only total = %v, want 100", got)
	}

	l2 := NewLedger()
	for i := 0; i < 2; i++ {
		at := float64(i)
		l2.Emit(Event{Type: EventQuantum, At: at, Node: "a", CPUPowerW: 60})
		l2.Emit(Event{Type: EventQuantum, At: at, Node: "b", CPUPowerW: 40})
		l2.Emit(Event{Type: EventQuantum, At: at, CPUPowerW: 100}) // coordinator aggregate
	}
	if got := l2.Summary().TotalJoules; got != 100 {
		t.Errorf("named+aggregate total = %v, want 100 (no double count)", got)
	}
}

func TestLedgerTextDeterministicAndSectioned(t *testing.T) {
	render := func(sections []string) string {
		l := NewLedger()
		feedLedger(l)
		var sb strings.Builder
		if err := l.Summary().Filter(sections).WriteText(&sb, sections); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	all, err := ParseSections("all")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(all), render(all); a != b {
		t.Errorf("identical ledgers rendered differently:\n%s\n---\n%s", a, b)
	}
	det, err := ParseSections("compliance, energy")
	if err != nil {
		t.Fatal(err)
	}
	// Order is normalised to render order regardless of spec order.
	if det[0] != SectionEnergy || det[1] != SectionCompliance {
		t.Fatalf("sections = %v", det)
	}
	out := render(det)
	if strings.Contains(out, "latency") || !strings.Contains(out, "overshoot 2.000 s") {
		t.Errorf("sectioned output:\n%s", out)
	}
	if !strings.Contains(out, "600.000 J") {
		t.Errorf("missing total row:\n%s", out)
	}
	if _, err := ParseSections("energy,bogus"); err == nil {
		t.Error("unknown section accepted")
	}
}

func TestReplayJSONL(t *testing.T) {
	trace := `{"type":"quantum","t":0,"node":"a","cpu_power_w":10}
{"type":"quantum","t":1,"node":"a","cpu_power_w":10}

{"type":"schedule","t":0,"trigger":"startup","budget_w":50,"charged_w":20}
`
	l := NewLedger()
	n, err := ReplayJSONL(strings.NewReader(trace), l)
	if err != nil || n != 3 {
		t.Fatalf("replay = %d events, err %v", n, err)
	}
	if got := l.Summary().TotalJoules; got != 10 {
		t.Errorf("replayed total = %v, want 10", got)
	}
	if _, err := ReplayJSONL(strings.NewReader("{broken"), l); err == nil {
		t.Error("malformed line accepted")
	}
}

// schedule is a one-CPU schedule pass for the residency tests.
func schedule(trigger string, missed bool, actualMHz, desiredMHz float64, idle bool) Event {
	return Event{Type: EventSchedule, Trigger: trigger, BudgetMissed: missed,
		CPUs: []CPUTrace{{CPU: 0, ActualMHz: actualMHz, DesiredMHz: desiredMHz, Idle: idle}}}
}

// TestLedgerResidency: the compliance counts and one processor's
// residency row — mean actual frequency, clipped share (desire above the
// actual), idle share and frequency shares — over four passes.
func TestLedgerResidency(t *testing.T) {
	l := NewLedger()
	l.Emit(schedule("timer", false, 650, 650, false))
	l.Emit(schedule("timer", false, 650, 650, false))
	l.Emit(schedule("budget-change", false, 500, 1000, false))
	l.Emit(schedule("timer", true, 250, 1000, true))
	s := l.Summary()
	if s.Passes != 4 || s.MissedPasses != 1 {
		t.Errorf("passes=%d missed=%d", s.Passes, s.MissedPasses)
	}
	if len(s.Triggers) != 2 || s.Triggers[0] != (TriggerCount{"budget-change", 1}) || s.Triggers[1] != (TriggerCount{"timer", 3}) {
		t.Errorf("triggers = %+v", s.Triggers)
	}
	if len(s.Residency) != 1 {
		t.Fatalf("residency rows = %+v", s.Residency)
	}
	r := s.Residency[0]
	if r.Node != "(machine)" || r.CPU != 0 || r.Passes != 4 {
		t.Errorf("row = %+v", r)
	}
	if r.MeanMHz != (650+650+500+250)/4.0 || r.Clipped != 0.5 || r.Idle != 0.25 {
		t.Errorf("mean %v clipped %v idle %v", r.MeanMHz, r.Clipped, r.Idle)
	}
	want := []FreqShare{{650, 0.5}, {250, 0.25}, {500, 0.25}}
	if len(r.Top) != 3 || r.Top[0] != want[0] || r.Top[1] != want[1] || r.Top[2] != want[2] {
		t.Errorf("top = %+v, want %+v", r.Top, want)
	}
	var sb strings.Builder
	if err := s.WriteText(&sb, []string{SectionResidency}); err != nil {
		t.Fatal(err)
	}
	if row := "  (machine)    cpu0   passes      4  mean  512 MHz  clipped  50%  idle  25%  demoted     0  top 650 MHz 50%, 250 MHz 25%, 500 MHz 25%\n"; sb.String() != "residency\n"+row {
		t.Errorf("residency section:\n%s", sb.String())
	}
}

// TestLedgerResidencyTiesInFrequencyOrder: residencies with equal shares
// rank lower frequency first, at most three are listed, and one under 1 %
// is not, so the section is the same bytes every time whatever order the
// residency map iterates in.
func TestLedgerResidencyTiesInFrequencyOrder(t *testing.T) {
	l := NewLedger()
	for _, mhz := range []float64{550, 350, 450, 250} {
		l.Emit(schedule("timer", false, mhz, mhz, false))
	}
	render := func(l *Ledger) string {
		var sb strings.Builder
		if err := l.Summary().WriteText(&sb, []string{SectionResidency}); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := render(l)
	if !strings.HasSuffix(want, "top 250 MHz 25%, 350 MHz 25%, 450 MHz 25%\n") {
		t.Fatalf("tied residencies not in frequency order:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		if got := render(l); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}

	rare := NewLedger()
	rare.Emit(schedule("startup", false, 1000, 1000, false))
	for i := 0; i < 100; i++ {
		rare.Emit(schedule("timer", false, 650, 650, false))
	}
	if top := rare.Summary().Residency[0].Top; len(top) != 1 || top[0].MHz != 650 {
		t.Errorf("a residency under 1 %% listed: %+v", top)
	}
}

// TestLedgerResidencyPerNode: a cluster pass keys each processor by its
// own node label (else the event's), demotions land on the row they
// name, and deselecting the section drops its rows from the JSON.
func TestLedgerResidencyPerNode(t *testing.T) {
	l := NewLedger()
	l.Emit(Event{Type: EventSchedule, Trigger: "timer",
		CPUs:      []CPUTrace{{CPU: 1, Node: "b", ActualMHz: 600}, {CPU: 0, Node: "a", ActualMHz: 800}, {CPU: 0, Node: "b", ActualMHz: 700}},
		Demotions: []DemotionTrace{{CPU: 0, Node: "b"}, {CPU: 0, Node: "b"}, {CPU: 1, Node: "a"}}})
	l.Emit(Event{Type: EventSchedule, Trigger: "timer", Node: "a",
		CPUs: []CPUTrace{{CPU: 0, ActualMHz: 600}}, Demotions: []DemotionTrace{{CPU: 0}}})
	s := l.Summary()
	if s.Demotions != 4 {
		t.Errorf("demotions = %d, want 4", s.Demotions)
	}
	type key struct {
		node           string
		cpu, passes, d int
		mean           float64
	}
	want := []key{{"a", 0, 2, 1, 700}, {"b", 0, 1, 2, 700}, {"b", 1, 1, 0, 600}}
	if len(s.Residency) != len(want) {
		t.Fatalf("rows = %+v", s.Residency)
	}
	for i, w := range want {
		r := s.Residency[i]
		if (key{r.Node, r.CPU, r.Passes, r.Demotions, r.MeanMHz}) != w {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
	data, err := json.Marshal(s.Filter([]string{SectionCompliance}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "residency") {
		t.Errorf("deselected residency in JSON: %s", data)
	}
}

// sectionKeys are the JSON keys of each report section on a ledger where
// every section has rows.
var sectionKeys = map[string][]string{
	SectionEnergy:     {"nodes", "total_joules", "budget_joules", "charged_joules"},
	SectionCompliance: {"overshoot_seconds", "overshoot_joules", "peak_overshoot_w", "passes", "triggers", "missed_passes", "demotions"},
	SectionResidency:  {"residency"},
	SectionPrediction: {"pred_samples", "pred_mean_abs_err", "pred_max_abs_err"},
	SectionLatency:    {"latency"},
}

// TestFilterJSONCarriesOnlySelectedSections: with one section selected,
// the JSON holds exactly that section's keys, one subtest per section.
func TestFilterJSONCarriesOnlySelectedSections(t *testing.T) {
	l := NewLedger()
	feedLedger(l)
	if len(sectionKeys) != len(AllSections) {
		t.Fatalf("sectionKeys covers %d sections, AllSections has %d", len(sectionKeys), len(AllSections))
	}
	for _, sec := range AllSections {
		t.Run(sec, func(t *testing.T) {
			data, err := json.Marshal(l.Summary().Filter([]string{sec}))
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatal(err)
			}
			for _, k := range sectionKeys[sec] {
				if _, ok := got[k]; !ok {
					t.Errorf("selected key %q missing from %s", k, data)
				}
			}
			if len(got) != len(sectionKeys[sec]) {
				t.Errorf("JSON carries keys of deselected sections: %s", data)
			}
		})
	}
}
