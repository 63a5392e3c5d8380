package workload

import (
	"fmt"

	"repro/internal/memhier"
)

// The service times of the p630's memory hierarchy in seconds, the one
// hierarchy the cursor's phase cost is computed for.
var p630L2, p630L3, p630Mem = memhier.P630().ServiceTimes()

// Program is a named sequence of phases with optional looping: after the
// last phase completes, execution re-enters the phase at LoopFrom for Loops
// additional iterations (Loops < 0 loops forever — how the idle loop and
// steady-state server workloads are expressed).
type Program struct {
	Name     string
	Phases   []Phase
	LoopFrom int
	// Loops is the number of additional passes over Phases[LoopFrom:]
	// after the first complete pass; negative means loop forever.
	Loops int
}

// Validate checks the program's structure and every phase.
func (p Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: program must have a name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: program %q has no phases", p.Name)
	}
	if p.LoopFrom < 0 || p.LoopFrom >= len(p.Phases) {
		return fmt.Errorf("workload: program %q LoopFrom %d out of range", p.Name, p.LoopFrom)
	}
	for _, ph := range p.Phases {
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("workload: program %q: %w", p.Name, err)
		}
	}
	return nil
}

// TotalInstructions returns the program's total instruction count, or
// (0, false) for infinite programs.
func (p Program) TotalInstructions() (uint64, bool) {
	if p.Loops < 0 {
		return 0, false
	}
	var first, loop uint64
	for i, ph := range p.Phases {
		first += ph.Instructions
		if i >= p.LoopFrom {
			loop += ph.Instructions
		}
	}
	return first + uint64(p.Loops)*loop, true
}

// Cursor tracks execution progress through a program. The machine advances
// it instruction by instruction (in bulk).
type Cursor struct {
	prog      Program
	phaseIdx  int
	executed  uint64 // instructions executed within the current phase
	loopsLeft int
	done      bool
	// core and stall are the current phase's cost, computed on entry:
	// frequency-scaled cycles per instruction (1/α plus non-memory
	// stalls) and the p630 memory time per instruction in seconds.
	core, stall float64
}

// NewCursor positions a cursor at the start of the program.
func NewCursor(p Program) (*Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newCursor(p), nil
}

// newCursor is NewCursor for a program already validated.
func newCursor(p Program) *Cursor {
	c := &Cursor{prog: p, loopsLeft: p.Loops}
	c.enterPhase()
	return c
}

// Program returns the program being executed.
func (c *Cursor) Program() Program { return c.prog }

// Done reports whether the program has run to completion.
func (c *Cursor) Done() bool { return c.done }

// Current returns the phase the cursor is in. Calling Current on a done
// cursor returns the last phase (harmless for bookkeeping). The phase is
// the program's own; the pointer stays on it when the cursor moves on.
func (c *Cursor) Current() *Phase { return &c.prog.Phases[c.phaseIdx] }

// PhaseCost returns the current phase's cost as its entry cached it: the
// frequency-scaled core cycles per instruction and the frequency-invariant
// p630 memory time per instruction in seconds. core + stall·s·f is
// Current().TrueCyclesPerInstr(memhier.P630(), f, s), bit for bit.
func (c *Cursor) PhaseCost() (core, stall float64) { return c.core, c.stall }

// enterPhase caches the cost of the phase the cursor has just entered, in
// TrueCyclesPerInstr's evaluation order.
func (c *Cursor) enterPhase() {
	ph := &c.prog.Phases[c.phaseIdx]
	c.core = 1/ph.Alpha + ph.NonMemStallCyclesPerInstr
	c.stall = ph.Rates.StallTime(p630L2, p630L3, p630Mem)
}

// RemainingInPhase returns how many instructions are left in the current
// phase.
func (c *Cursor) RemainingInPhase() uint64 {
	return c.prog.Phases[c.phaseIdx].Instructions - c.executed
}

// Advance consumes up to n instructions and returns how many were actually
// consumed (less than n when the program completes mid-quantum). Phase
// boundaries are honoured: the caller should re-read Current after an
// Advance that may have crossed one.
func (c *Cursor) Advance(n uint64) uint64 {
	var consumed uint64
	for n > 0 && !c.done {
		rem := c.RemainingInPhase()
		step := n
		if step > rem {
			step = rem
		}
		c.executed += step
		consumed += step
		n -= step
		if c.executed == c.prog.Phases[c.phaseIdx].Instructions {
			c.nextPhase()
		}
	}
	return consumed
}

// AdvanceWithinPhase consumes up to n instructions but never crosses a
// phase boundary; it returns the consumed count and whether the phase ended
// exactly at the boundary. The machine uses it so each simulated quantum
// has homogeneous characteristics.
func (c *Cursor) AdvanceWithinPhase(n uint64) (consumed uint64, phaseEnded bool) {
	if c.done {
		return 0, false
	}
	rem := c.RemainingInPhase()
	if n > rem {
		n = rem
	}
	c.executed += n
	if c.executed == c.prog.Phases[c.phaseIdx].Instructions {
		c.nextPhase()
		return n, true
	}
	return n, false
}

func (c *Cursor) nextPhase() {
	c.executed = 0
	c.phaseIdx++
	switch {
	case c.phaseIdx < len(c.prog.Phases):
	case c.loopsLeft != 0:
		// End of pass: loop.
		if c.loopsLeft > 0 {
			c.loopsLeft--
		}
		c.phaseIdx = c.prog.LoopFrom
	default:
		// End of the last pass: finish on the last phase.
		c.phaseIdx = len(c.prog.Phases) - 1
		c.done = true
	}
	c.enterPhase()
}

// Reset rewinds the cursor to the start of the program.
func (c *Cursor) Reset() {
	c.phaseIdx = 0
	c.executed = 0
	c.loopsLeft = c.prog.Loops
	c.done = false
	c.enterPhase()
}

// Rebind repoints the cursor at a new program and rewinds it, without
// allocating. It is the reuse path for open request-serving workloads: a
// serving station keeps one cursor per CPU and rebinds it to each request's
// program as the previous one completes, so the per-request steady-state
// path stays at zero allocations. The program must be valid; callers on a
// hot path validate the template once up front and then mutate only
// instruction counts. A phase's α, rates and stalls are read when the
// cursor enters it, so a change to them reaches the cursor at its next
// phase entry, a Reset or a Rebind.
func (c *Cursor) Rebind(p Program) {
	c.prog = p
	c.Reset()
}
