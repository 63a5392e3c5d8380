package workload

import (
	"fmt"
)

// Mix multiprograms several programs onto one processor with round-robin
// time slicing at dispatch-quantum granularity, the way a standard OS
// scheduler would. The paper's predictor only ever sees the *aggregate*
// counters of the processor, so a Mix is how the reproduction creates the
// aggregation-masking effect §5 warns about ("aggregate performance counter
// data ... may mask the presence of a high CPU-intensity application among
// many memory-intensive applications").
//
// A finished job leaves the mix at the next Add, so a dispatch costs
// O(live jobs) however many jobs an open workload has admitted.
type Mix struct {
	// jobs[:len] is the rotation; the cursors Add dropped stay in the
	// backing array past len and are rebound to later arrivals.
	jobs []*Cursor
	next int
}

// NewMix builds a mix over the given programs.
func NewMix(programs ...Program) (*Mix, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("workload: mix needs at least one program")
	}
	m := &Mix{}
	for _, p := range programs {
		c, err := NewCursor(p)
		if err != nil {
			return nil, err
		}
		m.jobs = append(m.jobs, c)
	}
	return m, nil
}

// Jobs returns the mix's cursors (shared, for progress inspection). The
// slice and its cursors are valid until the next Add, the only call that
// drops finished jobs: a cursor held across an Add may have left the mix
// and been rebound to a later arrival. A finished cursor revived in place
// (Rebind, Reset) rejoins the rotation only if no Add came in between.
func (m *Mix) Jobs() []*Cursor { return m.jobs }

// Add admits a new program into the mix mid-run — a job arrival in an open
// workload. The new job enters the round-robin rotation at its tail. Add
// first drops the finished jobs, keeping the live ones in rotation order;
// in steady state it reuses a dropped cursor and allocates nothing.
func (m *Mix) Add(p Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	// Compact, swapping dropped cursors past the live ones so they stay in
	// the backing array. next becomes the number of live jobs before it,
	// the index of the first live job at or after the old next — not
	// wrapped: when every live job sits before next, the rotation's next
	// pick is the job appended below.
	live, next := 0, 0
	for i, c := range m.jobs {
		if i == m.next {
			next = live
		}
		if !c.Done() {
			m.jobs[live], m.jobs[i] = c, m.jobs[live]
			live++
		}
	}
	m.jobs, m.next = m.jobs[:live], next
	if live < cap(m.jobs) && m.jobs[:live+1][live] != nil {
		m.jobs = m.jobs[:live+1]
		m.jobs[live].Rebind(p)
		return nil
	}
	m.jobs = append(m.jobs, newCursor(p))
	return nil
}

// Done reports whether every program in the mix has completed.
func (m *Mix) Done() bool {
	for _, j := range m.jobs {
		if !j.Done() {
			return false
		}
	}
	return true
}

// PickNext returns the next runnable cursor in round-robin order, or nil
// when all programs are done. Each call rotates the schedule so consecutive
// quanta go to different runnable jobs.
func (m *Mix) PickNext() *Cursor {
	n := len(m.jobs)
	for i := 0; i < n; i++ {
		idx := (m.next + i) % n
		if !m.jobs[idx].Done() {
			m.next = (idx + 1) % n
			return m.jobs[idx]
		}
	}
	return nil
}
