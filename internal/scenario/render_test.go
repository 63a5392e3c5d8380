package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/units"
)

// fmtRound is the trace format as fmt renders it: the oracle appendTo
// must match byte for byte.
func fmtRound(r RoundTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "r=%d t=%v trig=%s budget=%v live=%v reserved=%v charged=%v met=%v deg=%s\n",
		r.Round, r.At, r.Trigger, r.BudgetW, r.LiveW, r.ReservedW, r.ChargedW, r.Met,
		strings.Join(r.Degraded, ","))
	for _, p := range r.Procs {
		fmt.Fprintf(&b, "  %s/cpu%d idle=%v des=%v act=%v v=%v\n",
			p.Node, p.CPU, p.Idle, p.DesiredMHz, p.ActualMHz, p.VoltageV)
	}
	for _, sv := range r.Serve {
		fmt.Fprintf(&b, "  %s serve off=%d adm=%d rej=%d drop=%d done=%d to=%d bl=%d\n",
			sv.Node, sv.Offered, sv.Admitted, sv.Rejected, sv.Dropped,
			sv.Completed, sv.TimedOut, sv.Backlog)
	}
	return b.String()
}

// fmtFarmLine is RunFarm's trace line as fmt renders it, the oracle for
// appendFarmLine.
func fmtFarmLine(now float64, a farm.Allocation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.2f %s %.6f", now, a.Trigger, a.Charged.W())
	for _, l := range a.Leases {
		fmt.Fprintf(&b, " %s=%.6f", l.Member, l.Budget.W())
	}
	b.WriteByte('\n')
	return b.String()
}

// renderCase builds a round and a farm pass from loose values: one
// proc, serve line and lease per name in nodes ("|"-separated; empty
// means none), so the degraded list, the proc lines and the leases grow
// together.
func renderCase(round, cpu int, at, w, f float64, met, idle bool, trigger, nodes string, count uint64) (RoundTrace, farm.Allocation) {
	r := RoundTrace{Round: round, At: at, Trigger: trigger, BudgetW: w, LiveW: -w, ReservedW: f, ChargedW: at * w, Met: met}
	a := farm.Allocation{Trigger: trigger, Charged: units.Power(w)}
	if nodes != "" {
		r.Degraded = strings.Split(nodes, "|")
	}
	for i, n := range r.Degraded {
		r.Procs = append(r.Procs, ProcTrace{Node: n, CPU: cpu + i, Idle: idle != (i%2 == 1),
			DesiredMHz: f, ActualMHz: f / 3, VoltageV: at})
		r.Serve = append(r.Serve, ServeTrace{Node: n, Offered: count, Admitted: count >> 1,
			Rejected: count >> 2, Dropped: uint64(i), Completed: ^count, TimedOut: count * 3, Backlog: cpu - i})
		a.Leases = append(a.Leases, farm.Lease{Member: n, Budget: units.Power(f * float64(i+1))})
	}
	return r, a
}

func checkRender(t *testing.T, r RoundTrace, now float64, a farm.Allocation) {
	t.Helper()
	if got, want := string(r.appendTo(nil)), fmtRound(r); got != want {
		t.Errorf("appendTo:\n got %q\nwant %q", got, want)
	}
	if got, want := string(appendFarmLine(nil, now, a)), fmtFarmLine(now, a); got != want {
		t.Errorf("appendFarmLine:\n got %q\nwant %q", got, want)
	}
}

func TestRoundTraceRenderMatchesFmt(t *testing.T) {
	for _, c := range []struct {
		name string
		x    float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
		{"-0", math.Copysign(0, -1)},
		{"subnormal", math.SmallestNonzeroFloat64},
		{"1e21", 1e21},
		{"1e-5", 1e-5},
		{"half-cent", 0.125},
		{"long", 0.1 + 0.2},
	} {
		for _, nodes := range []string{"", "n0", "n0|n3|n11"} {
			t.Run(c.name+"/"+nodes, func(t *testing.T) {
				r, a := renderCase(7, 2, c.x, -c.x, c.x*1e3, true, false, "budget-change", nodes, 1<<63+5)
				checkRender(t, r, c.x, a)
			})
		}
	}
}

// TestRenderOneSlicesText: diffRuns compares rounds sliced out of Text,
// so each slice must be exactly that round's rendering.
func TestRenderOneSlicesText(t *testing.T) {
	res, err := RunCluster(servingSpec(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var all string
	for r, rt := range res.Trace {
		got := renderOne(res, r)
		if want := fmtRound(rt); got != want {
			t.Fatalf("round %d:\n got %q\nwant %q", r, got, want)
		}
		all += got
	}
	if all != res.Text {
		t.Fatal("the rounds' slices do not tile Text")
	}
	if got := renderOne(res, len(res.Trace)); !strings.Contains(got, "<missing>") {
		t.Fatalf("past the last round: %q", got)
	}
}

// FuzzRoundTraceRender holds appendTo and appendFarmLine to the fmt
// oracles on arbitrary floats, ints, bools and strings.
func FuzzRoundTraceRender(f *testing.F) {
	f.Add(3, 1, 0.06, 294.5, 1000.0, true, false, "timer", "n0|n1", uint64(17))
	f.Add(-1, -7, math.NaN(), math.Inf(1), math.Inf(-1), false, true, "", "", uint64(0))
	f.Add(0, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e21, true, true, "budget-change", "|", uint64(math.MaxUint64))
	f.Add(1<<40, 9, 1e-5, 0.1+0.2, -0.005, false, false, "x=y\n", "a,b|\xff", uint64(1)<<63)
	f.Fuzz(func(t *testing.T, round, cpu int, at, w, x float64, met, idle bool, trigger, nodes string, count uint64) {
		r, a := renderCase(round, cpu, at, w, x, met, idle, trigger, nodes, count)
		checkRender(t, r, at, a)
	})
}
