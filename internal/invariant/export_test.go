package invariant

import "repro/internal/optimal"

// CheckProblem and OptGapProblem open the explicit-Problem forms to the
// external test package, so a test can hand the checker a comparator
// input no real pass produces (a non-deterministic loss surface).
func (c StepTwoOptimal) CheckProblem(p *Pass, prob optimal.Problem) []Violation {
	return c.check(p, prob)
}

func (p *Pass) OptGapProblem(prob optimal.Problem) (greedy, opt float64, energy optimal.Assignment, ok bool, err error) {
	return p.optGap(prob)
}
