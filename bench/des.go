package main

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/workload"
)

// fleetSize shapes the quiet fleet: Nodes machines simulated for Horizon
// seconds each, one operation per shard of Nodes/Shards machines. The
// whole fleet in one operation takes seconds, too few samples for a
// median; machines do not interact, so sharding changes no result.
type fleetSize struct {
	Nodes   int
	Shards  int
	Horizon float64
}

var idleFleet = fleetSize{Nodes: 10_000, Shards: 10, Horizon: 3600}

// fleetWorld is the desbench fleet shape: quiet 4-CPU halting-idle
// machines, every fourth with one short Gzip burst a minute. One
// operation simulates one shard for the horizon on its own timeline.
// When every shard is done the next operation starts on a fresh fleet
// from the same seed, so operation i must agree with operation i-Shards.
type fleetWorld struct {
	size  fleetSize
	seed  int64
	tr    *tracer
	fleet []*machine.Machine
	ops   []string
	// events counts timeline handler calls over all operations.
	events int
}

func (size fleetSize) build(seed int64, tr *tracer) (instance, error) {
	w := &fleetWorld{size: size, seed: seed, tr: tr}
	return w, w.populate()
}

func (w *fleetWorld) populate() error {
	w.tr.setOp(len(w.ops))
	id := w.tr.begin("machine.build", 0)
	defer w.tr.end(id)
	w.fleet = make([]*machine.Machine, w.size.Nodes)
	for i := range w.fleet {
		cfg := quietConfig(4, w.seed*1_000_003+int64(i))
		cfg.Idle = machine.IdleHalt
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		w.fleet[i] = m
		if i%4 != 0 {
			continue
		}
		// Bursts are staggered per node the way independent request
		// streams would be: a first burst within 20 s, then one every
		// 55 to 65 s, both drawn from the node index and the seed.
		phase := 0.5 + float64(pmod(int64(i)+w.seed*7919, 1951))*0.01
		interval := 55 + float64(pmod(int64(i)*31+w.seed*104729, 1001))*0.01
		var sched workload.Schedule
		for k, at := 0, phase; at < w.size.Horizon; k, at = k+1, at+interval {
			sched = append(sched, workload.Arrival{At: at, CPU: (i + k) % cfg.NumCPUs, Program: workload.Gzip(0.002)})
		}
		if err := m.Submit(sched); err != nil {
			return err
		}
	}
	return nil
}

// pmod is a mod m in [0, m), for seeds of either sign.
func pmod(a, m int64) int64 { return (a%m + m) % m }

// park is one machine parked on the timeline: each arrival event
// advances the machine to the arrival, fast-forwarding the idle span
// behind it, and reposts at the next one.
type park struct {
	w      *fleetWorld
	m      *machine.Machine
	tl     *engine.Timeline
	parent int
}

// HandleEvent implements engine.Handler.
func (p *park) HandleEvent(now float64, _ uint64) error {
	p.w.events++
	id := p.w.tr.begin("machine.advance", p.parent)
	defer p.w.tr.end(id)
	if err := p.m.AdvanceTo(now); err != nil {
		return err
	}
	for {
		next, ok := p.m.NextArrivalAt()
		if !ok || next >= p.w.size.Horizon {
			return nil
		}
		if next > p.m.Now() {
			_, err := p.tl.Post(next, p, 0)
			return err
		}
		// An arrival exactly on the machine's clock matures at the next
		// quantum start; consume it before parking or the repost would
		// spin at the same instant.
		if err := p.m.FastForwardQuanta(1, nil); err != nil {
			return err
		}
	}
}

func (w *fleetWorld) step() (float64, error) {
	shard := len(w.ops) % w.size.Shards
	per := w.size.Nodes / w.size.Shards
	fleet := w.fleet[shard*per : (shard+1)*per]
	w.tr.setOp(len(w.ops))
	horizon := w.size.Horizon
	start := time.Now()
	dispatch := w.tr.begin("engine.dispatch", 0)
	tl := engine.NewTimeline()
	parks := make([]park, len(fleet))
	for i, m := range fleet {
		parks[i] = park{w: w, m: m, tl: tl, parent: dispatch}
		if at, ok := m.NextArrivalAt(); ok && at < horizon {
			if _, err := tl.Post(at, &parks[i], 0); err != nil {
				return 0, err
			}
		}
	}
	if err := tl.AdvanceTo(horizon); err != nil {
		return 0, err
	}
	w.tr.end(dispatch)
	sweep := w.tr.begin("machine.sweep", 0)
	for _, m := range fleet {
		if err := m.AdvanceTo(horizon); err != nil {
			return 0, err
		}
	}
	w.tr.end(sweep)
	wall := time.Since(start).Seconds()

	h := sha256.New()
	for _, m := range fleet {
		putFloat(h, m.Now())
		putFloat(h, m.Energy().J())
		putFloat(h, m.CPUEnergy().J())
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			s, err := m.ReadCounters(cpu)
			if err != nil {
				return 0, err
			}
			putFloat(h, float64(s.Instructions))
		}
	}
	w.ops = append(w.ops, hex.EncodeToString(h.Sum(nil)))
	if shard == w.size.Shards-1 {
		// The next cycle's fleet is built now, not when it is first
		// needed, so that every whole cycle holds exactly one build and
		// the allocation per operation repeats.
		if err := w.populate(); err != nil {
			return 0, err
		}
	}
	return wall, nil
}

func (w *fleetWorld) finish() (outcome, error) {
	w.fleet = nil
	out := outcome{
		Ops:    w.ops,
		Failed: make([]string, len(w.ops)),
		Work:   float64(w.size.Nodes/w.size.Shards) * w.size.Horizon,
	}
	if w.tr != nil && len(w.ops) > 0 {
		out.Layers = map[string]float64{"engine.events": float64(w.events) / float64(len(w.ops))}
	}
	return out, nil
}
