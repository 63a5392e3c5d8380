package scenario

import (
	"fmt"
	"strings"
)

// Divergence is one round whose traces differ with no fault window to
// excuse it.
type Divergence struct {
	Round  int    `json:"round"`
	Detail string `json:"detail"`
}

// DiffResult is one differential run: the same scenario through two
// stacks (Base the reference arm, Variant the other), compared round by
// round.
type DiffResult struct {
	Spec    Spec       `json:"spec"`
	Base    *RunResult `json:"base"`
	Variant *RunResult `json:"variant"`
	// FaultRounds counts rounds inside declared fault windows, where
	// RunDifferential allows (not requires) the traces to differ. The
	// codec and tier differentials mask nothing and leave it zero.
	FaultRounds int `json:"fault_rounds"`
	// InWindowDiffs counts rounds that differed inside fault windows.
	InWindowDiffs int `json:"in_window_diffs"`
	// Divergences are rounds that differed outside every masked window —
	// each one a real equivalence violation.
	Divergences []Divergence `json:"divergences,omitempty"`
	// Equivalent reports no divergence.
	Equivalent bool `json:"equivalent"`
}

// RunDifferential runs the same scenario through cluster.Core in-process
// and through netcluster over loopback+faultnet — the connection and
// codec every binary dials — and compares the decision traces round by
// round. Outside declared fault windows the rendered rounds must match
// byte for byte; inside them (partition windows, plus everything after a
// message-fault policy starts, since a dropped counter response skews the
// remote machine's simulated time permanently) differences are recorded
// but allowed: the mirror freezes a partitioned node by reading the spec
// and models no message faults at all, while the networked arm lives both
// through wall-clock RPC deadlines, and the two need not agree. The UPS and the serving overlay are stripped on both sides — the
// transport models neither battery drain nor request streams.
func RunDifferential(spec Spec) (*DiffResult, error) {
	spec = spec.WithoutUPS().WithoutServing()
	inproc, err := RunCluster(spec, Options{})
	if err != nil {
		return nil, fmt.Errorf("scenario: in-process run: %w", err)
	}
	netRun, err := RunNet(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: networked run: %w", err)
	}
	return diffRuns(spec, inproc, netRun, "in-proc", "net", spec.faultAffected), nil
}

// runCodecDifferential runs the same scenario through the networked
// stack twice — JSON hot frames, the oracle, against the binary codec
// that ships — and compares the traces with no fault-window mask. The
// codecs carry the same values losslessly (floats travel as their exact
// bit patterns) and faultnet draws a message's fate before it is encoded,
// keyed only on send order, which the codec does not change: both arms
// see the same drops, duplicates and partitions, so every round must
// match byte for byte, faulted or not.
func runCodecDifferential(spec Spec) (*DiffResult, error) {
	spec = spec.WithoutUPS().WithoutServing()
	jsonRun, err := runNet(spec, 0, "json")
	if err != nil {
		return nil, fmt.Errorf("scenario: json run: %w", err)
	}
	binRun, err := RunNet(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: binary run: %w", err)
	}
	return diffRuns(spec, jsonRun, binRun, "json", "bin", nil), nil
}

// runTierDifferential runs the fault-free projection of the scenario
// through the flat coordinator and through the 2-level relay tree — the
// same codec on both, so topology is the only variable — and compares the
// traces, which must match byte for byte on every round: the hierarchical
// divide is exact, the relay ledger reassembles in global node order, and
// without faults no conservative-charge path triggers. Faults are
// stripped (rather than windowed) because the two topologies draw from
// differently-shaped fault streams, so in-window behaviour is not
// comparable.
func runTierDifferential(spec Spec) (*DiffResult, error) {
	spec = spec.FaultFree().WithoutUPS().WithoutServing()
	flat, err := RunNet(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: flat run: %w", err)
	}
	tree, err := RunRelayNet(spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: relay run: %w", err)
	}
	return diffRuns(spec, flat, tree, "flat", "tree", nil), nil
}

// diffRuns compares two runs of the same spec round by round. Rounds for
// which masked reports true may differ (recorded, not failed); every
// other difference is a divergence. A nil masked excuses nothing.
func diffRuns(spec Spec, base, variant *RunResult, baseLabel, variantLabel string, masked func(round int) bool) *DiffResult {
	d := &DiffResult{Spec: spec, Base: base, Variant: variant}
	for r := 0; r < spec.Rounds; r++ {
		inWindow := masked != nil && masked(r)
		if inWindow {
			d.FaultRounds++
		}
		a, b := renderOne(base, r), renderOne(variant, r)
		if a == b {
			continue
		}
		if inWindow {
			d.InWindowDiffs++
			continue
		}
		d.Divergences = append(d.Divergences, Divergence{Round: r, Detail: firstDiff(a, b, baseLabel, variantLabel)})
	}
	d.Equivalent = len(d.Divergences) == 0
	return d
}

// renderOne is round r's lines, sliced from the run's rendered Text, or a
// <missing> line past its last round.
func renderOne(res *RunResult, r int) string {
	if res == nil || r >= len(res.ends) {
		return fmt.Sprintf("r=%d <missing>\n", r)
	}
	lo := 0
	if r > 0 {
		lo = res.ends[r-1]
	}
	return res.Text[lo:res.ends[r]]
}

// firstDiff returns the first differing line pair, labelled per side.
func firstDiff(a, b, la, lb string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("%s %q vs %s %q", la, strings.TrimSpace(x), lb, strings.TrimSpace(y))
		}
	}
	return "traces differ"
}
