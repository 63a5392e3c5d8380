package farm

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/units"
)

// Lease is one expiring budget grant from the allocator to a cluster:
// the cluster may schedule against Budget until Expires, after which it
// must fall back to its floor on its own. Expiry-without-renewal is how
// the invariant survives partitions and allocator silence — the same
// shape as the engine.Lease watchdog, but carrying a power value and
// synchronised through simulation time rather than a clock callback.
type Lease struct {
	Member  string
	Budget  units.Power
	Granted float64
	Expires float64
}

// Holder is the cluster-side end of the lease protocol and itself a
// BudgetSource: it yields the leased budget while the lease is live and
// the floor once it expires, emitting one obs.EventLeaseExpire on the
// expiry edge (engine.Lease-style once-only semantics — a re-Grant
// re-arms it). Plugging a Holder into cluster.Coordinator.SetBudgetSource
// gives the coordinator the paper's budget-change trigger at both the
// grant and the expiry edge with no extra wiring. An Allocator builds one
// per member (Allocator.Holder) and grants into it on every pass.
//
// Holder is not synchronised; like engine.Lease it belongs to whatever
// single-threaded loop owns the cluster.
type Holder struct {
	name    string
	floor   units.Power
	sink    obs.Sink
	metrics *Metrics

	lease   Lease
	granted bool
	tripped bool
}

// NewHolder builds a lone lease holder for a cluster with the given floor
// budget, for a cluster driven without an Allocator; an Allocator's
// members use Allocator.Holder. Until the first Grant it yields the floor.
// sink and metrics may be nil.
func NewHolder(name string, floor units.Power, sink obs.Sink, metrics *Metrics) (*Holder, error) {
	if name == "" {
		return nil, fmt.Errorf("farm: holder needs a name")
	}
	if floor <= 0 {
		return nil, fmt.Errorf("farm: holder %s floor %v must be positive", name, floor)
	}
	return &Holder{name: name, floor: floor, sink: sink, metrics: metrics}, nil
}

// Name returns the holder's cluster name.
func (h *Holder) Name() string { return h.name }

// Floor returns the failsafe budget the holder falls back to.
func (h *Holder) Floor() units.Power { return h.floor }

// Grant installs a new lease, replacing any previous one and re-arming
// the expiry edge.
func (h *Holder) Grant(l Lease) {
	h.lease = l
	h.granted = true
	h.tripped = false
}

// Lease returns the current lease and whether one was ever granted.
func (h *Holder) Lease() (Lease, bool) { return h.lease, h.granted }

// live reports whether a granted lease is still in force at now.
func (h *Holder) live(now float64) bool {
	return h.granted && now < h.lease.Expires
}

// Expired reports whether the holder has fallen back to its floor.
func (h *Holder) Expired(now float64) bool { return !h.live(now) }

// BudgetAt yields the budget the cluster may schedule against at now: the
// leased budget while live, the floor after expiry. The first call past
// the expiry emits the lease-expire trace event and counts the metric.
func (h *Holder) BudgetAt(now float64) units.Power {
	if !h.Expired(now) {
		return h.lease.Budget
	}
	if h.granted && !h.tripped {
		h.tripped = true
		if h.sink != nil {
			h.sink.Emit(obs.Event{
				Type:    obs.EventLeaseExpire,
				At:      now,
				Node:    h.name,
				BudgetW: h.floor.W(),
				Detail: fmt.Sprintf("lease of %v granted at t=%.3f expired at t=%.3f; floor %v",
					h.lease.Budget, h.lease.Granted, h.lease.Expires, h.floor),
			})
		}
		h.metrics.countLeaseExpiry(h.name)
	}
	return h.floor
}
