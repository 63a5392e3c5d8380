// Package invariant encodes the scheduler stack's contracts as executable
// predicates. The paper's value proposition is a safety contract —
// aggregate processor power never exceeds the budget while performance
// loss stays minimal (§4 Step 2, §5) — and after the fvsst, cluster,
// netcluster and farm layers each enforce a slice of it, this package is
// the one place that states the whole contract and checks it at run time.
//
// The checkers deliberately do not call into the production decision path
// they are judging: NewPass re-derives the prediction grid from the raw
// observations with its own perfmodel calls, and StepTwoReplay replays
// the documented greedy selection rule with an independent implementation.
// A bug in fvsst or cluster.Core therefore cannot hide itself by also
// corrupting the checker's expectations.
//
// Checkers implement Checker over a Pass snapshot (one scheduling pass);
// Suite composes them and accumulates Violations. System-level predicates
// that do not fit the pass shape — the transport budget ledger, the farm
// allocator's lease conservation, lease-holder floor safety, determinism
// — are plain functions returning the same Violation type, so a harness
// can funnel everything through one Suite via Report.
//
// The catalogue of invariants, with formal statements and the paper
// sections they come from, is docs/invariants.md.
package invariant

import (
	"fmt"
)

// Violation is one broken contract: which checker, at what simulation
// time, and a human-readable account of the expected/actual values.
type Violation struct {
	Checker string  `json:"checker"`
	At      float64 `json:"at"`
	Detail  string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%.3f %s", v.Checker, v.At, v.Detail)
}

// Checker is one executable contract over a scheduling pass. Each
// violation it reports names it by its catalogue name (Violation.Checker).
type Checker interface {
	// Check returns every way the pass breaks this contract (nil when it
	// holds).
	Check(p *Pass) []Violation
}

// Suite composes checkers and accumulates violations across a run. The
// stored list is capped, keeping the earliest violations, which are the
// ones a shrunk reproducer needs.
type Suite struct {
	checkers   []Checker
	violations []Violation
	max        int
}

// DefaultMaxViolations bounds the violations a Suite retains.
const DefaultMaxViolations = 64

// NewSuite builds a suite over the given checkers.
func NewSuite(checkers ...Checker) *Suite {
	return &Suite{checkers: checkers, max: DefaultMaxViolations}
}

// DefaultSuite returns every pass-level checker at its default settings —
// the set a soak harness runs per scheduling pass. Step-2 near-optimality
// runs against the hull certificate and, where it cannot close, the exact
// DP comparator (StepTwoOptimal), which covers every grid.
func DefaultSuite() *Suite {
	return NewSuite(
		GridSanity{},
		EpsilonSaturation{},
		StepTwoReplay{},
		StepTwoOptimal{},
		VoltageMatch{},
		BudgetConservation{},
	)
}

// Check runs every checker against the pass, recording violations.
func (s *Suite) Check(p *Pass) {
	for _, c := range s.checkers {
		s.Report(c.Check(p)...)
	}
}

// Report funnels externally produced violations (ledger checks, farm
// checks, determinism) into the suite's accounting.
func (s *Suite) Report(violations ...Violation) {
	room := s.max - len(s.violations)
	if room <= 0 {
		return
	}
	if len(violations) > room {
		violations = violations[:room]
	}
	s.violations = append(s.violations, violations...)
}

// Violations returns the retained violations (earliest first).
func (s *Suite) Violations() []Violation {
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// CheckDeterminism runs the closure twice and demands byte-identical
// output — the repo's seed-only determinism convention (one seed
// reproduces the whole run, at any worker count, because runs share no
// mutable state). A mismatch or error is reported as a "determinism"
// violation.
func CheckDeterminism(label string, run func() (string, error)) []Violation {
	first, err := run()
	if err != nil {
		return []Violation{{Checker: "determinism", Detail: fmt.Sprintf("%s: first run failed: %v", label, err)}}
	}
	second, err := run()
	if err != nil {
		return []Violation{{Checker: "determinism", Detail: fmt.Sprintf("%s: second run failed: %v", label, err)}}
	}
	if first == second {
		return nil
	}
	line := 1
	n := len(first)
	if len(second) < n {
		n = len(second)
	}
	for i := 0; i < n; i++ {
		if first[i] != second[i] {
			break
		}
		if first[i] == '\n' {
			line++
		}
	}
	return []Violation{{
		Checker: "determinism",
		Detail: fmt.Sprintf("%s: replay diverged at line %d (%d vs %d bytes)",
			label, line, len(first), len(second)),
	}}
}
