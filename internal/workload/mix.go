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
type Mix struct {
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

// Jobs returns the mix's cursors (shared, for progress inspection).
func (m *Mix) Jobs() []*Cursor { return m.jobs }

// Add admits a new program into the mix mid-run — a job arrival in an open
// workload. The new job enters the round-robin rotation at its tail.
func (m *Mix) Add(p Program) error {
	c, err := NewCursor(p)
	if err != nil {
		return err
	}
	m.jobs = append(m.jobs, c)
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

// Reset rewinds every program in the mix.
func (m *Mix) Reset() {
	for _, j := range m.jobs {
		j.Reset()
	}
	m.next = 0
}
