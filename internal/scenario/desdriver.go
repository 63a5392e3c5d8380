// How a live node crosses a round, and the differential that keeps it
// honest. RunCluster skips: a node with nothing interesting inside the
// round — no serving work in flight, no arrival maturing — crosses it
// on the machine's probe-and-replay fast-forward path instead of
// hand-stepped quanta. The per-quantum arm survives only as the
// reference RunDESDifferential compares RunCluster against, byte for
// byte; nothing else in the package can reach it.
package scenario

import "fmt"

// advanceNodeRound carries one live node across a round's quanta.
// RunCluster (stepped=false) first asks roundSkippable whether the round
// can touch anything beyond plain machine time; if not it fast-forwards —
// FastForwardQuanta itself falls back to real steps for any quantum that
// is not a certified fixed point, so skipping is always byte-safe.
// Otherwise, and always on the differential's reference side
// (stepped=true), it hand-steps every quantum with the serving bracket.
func advanceNodeRound(n *nodeRun, periods int, stepped bool) error {
	if !stepped && n.roundSkippable(periods) {
		if err := n.m.FastForwardQuanta(periods, n.sampler.Collect); err != nil {
			return fmt.Errorf("scenario: %s fast-forward: %w", n.name, err)
		}
		return nil
	}
	for q := 0; q < periods; q++ {
		if n.st != nil {
			// Bracket the quantum exactly as the experiments do:
			// deliver matured arrivals and start idle CPUs before the
			// step, sweep completions and timeouts after it.
			t := n.m.Now()
			n.feeder.DeliverUpTo(t, n.st)
			n.st.BeforeQuantum(t)
		}
		if err := n.m.StepQuantum(); err != nil {
			return fmt.Errorf("scenario: %s step: %w", n.name, err)
		}
		if n.st != nil {
			n.st.AfterQuantum(n.m.Now())
		}
		if err := n.sampler.Collect(); err != nil {
			return fmt.Errorf("scenario: %s collect: %w", n.name, err)
		}
	}
	return nil
}

// roundSkippable reports whether the whole round is hands-off for this
// node: non-serving nodes always are (the machine layer guards itself),
// serving nodes only while the station is drained and the next arrival
// lands safely past the round's end. The two-quantum
// margin keeps float accumulation on the arrival clock from pulling an
// edge case inside the span.
func (n *nodeRun) roundSkippable(periods int) bool {
	if n.st == nil {
		return true
	}
	return n.st.Backlog() == 0 && n.feeder.NextAt() > n.m.Now()+float64(periods+2)*quantum
}

// RunDESDifferential runs the scenario stepped quantum by quantum (the
// reference arm) and through RunCluster (the event engine that ships) and
// compares them with diffClusterRuns. No allowance is made for faults,
// UPS or serving — the engine must reproduce all of them exactly, so
// every differing round is a divergence. Only the shipped arm runs the
// invariant suite and is hashed; the reference arm is digest-only, and a
// round whose checker inputs differ is a divergence.
func RunDESDifferential(spec Spec, opt Options) (*DiffResult, error) {
	ref, err := runCluster(spec, opt, true, false)
	if err != nil {
		return nil, fmt.Errorf("scenario: quantum run: %w", err)
	}
	des, err := RunCluster(spec, opt)
	if err != nil {
		return nil, fmt.Errorf("scenario: DES run: %w", err)
	}
	return diffClusterRuns(spec, ref, des, "quantum", "des"), nil
}
