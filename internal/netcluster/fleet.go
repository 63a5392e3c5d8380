package netcluster

import (
	"fmt"
	"time"
)

// WorstCasePhase bounds how long a coordinator configured like c can keep
// its parent waiting on transport alone. Every phase is one RPC per peer,
// all peers in parallel: up to Retries+1 attempts of a redial, a hello and
// the request itself, each within RPCTimeout, with a backoff before every
// retry. A parent tier's per-attempt deadline must cover it (NewFleet sees
// to that): a root that gives up first retries the demand, the relay polls
// (and advances) its subtree twice, and that round's grant is lost.
func (c Config) WorstCasePhase() time.Duration {
	c.applyDefaults()
	return time.Duration(c.Retries+1)*3*c.RPCTimeout + time.Duration(c.Retries)*c.BackoffMax
}

// Fleet is one connected control plane over a set of agents: a flat
// Coordinator, or a Root over Relays that each own a connected
// sub-coordinator over a contiguous group of the agents. It owns the
// order things connect and close in; everything a caller chooses per
// tier — seeds, dialers, deadlines, sinks, codec — arrives through
// NewFleet's Config callback.
type Fleet struct {
	top     *Coordinator // the flat coordinator, or the root's
	root    *Root        // nil when flat
	relays  []*Relay
	offsets []int
}

// NewFleet builds and connects the control plane over nodes. With
// relays = 0 it is one flat Coordinator. Otherwise the nodes split into
// that many contiguous groups (the first len(nodes) mod relays take one
// extra, so global node order is the concatenation of the groups), each
// behind a Relay named relay<j> — registered on pd when non-nil, listening
// on loopback TCP otherwise — under one Root.
//
// cfg supplies each tier's Config: group is the relay index for a relay's
// sub-coordinator and -1 for the top tier (name "root", or "coordinator"
// when flat). A root's RPCTimeout is raised to the relay configs' longest
// WorstCasePhase when it is shorter: the tree is wired here, so the nested
// deadline is worked out here. On error everything already started is closed.
func NewFleet(nodes []NodeSpec, relays int, pd *PipeDialer, cfg func(name string, group int) Config) (_ *Fleet, err error) {
	if relays < 0 || relays > len(nodes) {
		return nil, fmt.Errorf("netcluster: %d relays for %d nodes", relays, len(nodes))
	}
	f := &Fleet{offsets: make([]int, max(relays, 1))}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	peers, topName := nodes, "coordinator"
	if relays > 0 {
		peers, topName = make([]NodeSpec, relays), "root"
	}
	var subPhase time.Duration
	for j, lo := 0, 0; j < relays; j++ {
		hi := lo + len(nodes)/relays
		if j < len(nodes)%relays {
			hi++
		}
		name := fmt.Sprintf("relay%d", j)
		subCfg := cfg(name, j)
		subPhase = max(subPhase, subCfg.WorstCasePhase())
		sub, err := NewCoordinator(subCfg, nodes[lo:hi]...)
		if err != nil {
			return nil, err
		}
		if err := sub.Connect(); err != nil {
			sub.Close()
			return nil, err
		}
		relay, err := NewRelay(RelayConfig{Name: name}, sub)
		if err != nil {
			sub.Close()
			return nil, err
		}
		f.relays = append(f.relays, relay) // from here Close closes sub too
		if peers[j], err = relay.Listen(pd); err != nil {
			return nil, err
		}
		f.offsets[j], lo = lo, hi
	}
	topCfg := cfg(topName, -1)
	topCfg.applyDefaults()
	topCfg.RPCTimeout = max(topCfg.RPCTimeout, subPhase)
	if f.top, err = NewCoordinator(topCfg, peers...); err != nil {
		return nil, err
	}
	if relays > 0 {
		f.root = &Root{Coordinator: f.top}
	}
	if err = f.top.Connect(); err != nil {
		return nil, err
	}
	return f, nil
}

// Close tears the control plane down top first: the root (or flat
// coordinator) hangs up, then each relay stops serving and closes its
// subtree sessions. The agents are the caller's.
func (f *Fleet) Close() {
	if f.top != nil {
		f.top.Close()
	}
	for _, r := range f.relays {
		r.Close()
	}
}

// RunRound runs one scheduling period and returns its header.
func (f *Fleet) RunRound() (Round, error) {
	if f.root != nil {
		if err := f.root.RunRound(); err != nil {
			return Round{}, err
		}
		return f.root.rootDecisions[len(f.root.rootDecisions)-1].Round, nil
	}
	if err := f.top.RunRound(); err != nil {
		return Round{}, err
	}
	return f.top.decisions[len(f.top.decisions)-1].Round, nil
}

// Now returns the top tier's scheduling epoch in seconds.
func (f *Fleet) Now() float64 { return f.top.Now() }

// Status reports the top tier's view of its peers: the nodes when flat,
// the relays in a tree.
func (f *Fleet) Status() []NodeStatus { return f.top.Status() }

// Offsets returns each leaf's global index of its node 0: {0} when flat,
// one entry per relay in a tree.
func (f *Fleet) Offsets() []int { return f.offsets }

// Leaves returns the round logs that carry per-CPU assignments: the flat
// coordinator's, or every relay's sub-coordinator's, in Offsets order. A
// relay that missed a grant has a shorter log than the root ran rounds.
func (f *Fleet) Leaves() [][]Decision {
	if f.root == nil {
		return [][]Decision{f.top.Decisions()}
	}
	decs := make([][]Decision, len(f.relays))
	for j, r := range f.relays {
		decs[j] = r.coord.Decisions()
	}
	return decs
}
