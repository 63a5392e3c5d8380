// Wake bounds: how the serving subsystem tells a discrete-event driver
// (scenario.RunCluster's roundSkippable) when it next needs a real
// quantum. A drained station is quiet until its next arrival, so the
// driver may skip the span in bulk; anything in flight pins per-quantum
// processing (timeouts age and completions rebind within quanta).
package serve

import "math"

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
