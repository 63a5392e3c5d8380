// Wake bounds: how the serving subsystem tells a discrete-event driver
// (scenario.RunCluster's roundSkippable) when it next needs a real
// quantum. A drained station with no trace sink is quiet until its next
// arrival, so the driver may skip the span in bulk; anything in flight
// pins per-quantum processing (timeouts age and completions rebind
// within quanta).
package serve

import "math"

// NextWakeAt bounds how long the station can go without per-quantum
// processing: with work in flight or a trace sink attached it returns now
// (no skipping — timeouts, dispatch and emits need every quantum), and
// +Inf once drained and silent. Arrivals are the feeder's to bound.
func (s *Station) NextWakeAt(now float64) float64 {
	if s.Backlog() > 0 || s.cfg.Sink != nil {
		return now
	}
	return math.Inf(1)
}

// SkipQuanta accounts n skipped quanta against the station's emit
// cadence, keeping event spacing aligned when a DES driver fast-forwards
// a drained span.
func (s *Station) SkipQuanta(n int) { s.quanta += n }

// NextAt returns the earliest undelivered arrival instant across every
// client stream, or +Inf with no streams — the feeder's next interesting
// time on a DES timeline.
func (f *Feeder) NextAt() float64 {
	next := math.Inf(1)
	for i := range f.srcs {
		if t := f.srcs[i].stream.Next(); t < next {
			next = t
		}
	}
	return next
}
