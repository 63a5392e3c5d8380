package optimal

// SolveBB runs the branch-and-bound solver alone, at the default node
// cap, on an instance whose all-floor assignment fits the budget (its
// precondition). The differential tests hold it to brute force directly,
// however small the DP's frontier stays. Exported for the external test
// package.
func SolveBB(p Problem) (Assignment, error) {
	return solveBB(&p, Limits{MaxNodes: DefaultMaxNodes})
}
