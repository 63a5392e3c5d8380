package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"
	"time"

	"repro/internal/fvsst"
	"repro/internal/machine"
	"repro/internal/netcluster"
	"repro/internal/netcluster/wire"
	"repro/internal/units"
	"repro/internal/workload"
)

// periodT is the paper's scheduling period T: a round slower than this
// missed its period.
const periodT = 100 * time.Millisecond

// roundSize shapes a networked fleet. Fanout 0 is one flat coordinator;
// otherwise agents sit behind relays of that many children under a root.
type roundSize struct {
	Agents       int
	CPUsPerAgent int
	Fanout       int
	WattsPerCPU  float64
	Warmup       int
}

var (
	tree1k   = roundSize{Agents: 1000, CPUsPerAgent: 1, Fanout: 50, WattsPerCPU: 40, Warmup: 20}
	flatWide = roundSize{Agents: 125, CPUsPerAgent: 16, Fanout: 0, WattsPerCPU: 60, Warmup: 20}
)

// roundApps are cycled over the fleet's CPUs by index.
var roundApps = []string{"gzip", "mcf", "gap", "health"}

// roundWorld is a connected fleet plus whichever of the two round
// drivers its shape calls for.
type roundWorld struct {
	size    roundSize
	flat    *netcluster.Coordinator
	root    *netcluster.Root
	relays  []*netcluster.Relay
	closers []interface{ Close() error }
	rounds  int
	errs    map[int]error // RunRound errors by round index

	// Traced worlds only. stats0 is the codec counters' state when the
	// warm-up ended.
	tr        *tracer
	sink      *roundSink
	metrics   *netcluster.Metrics
	stats     *wire.Stats
	stats0    wire.StatsSnapshot
	rpcs      map[string]*rpcSamples
	demotions []float64 // Step-2 demotions per timed round
}

// build makes the fleet, connects it and runs the warm-up rounds: the
// first rounds send full counter reports, size pools and the GC heap,
// and ran about twice as slow in the prototype.
func (size roundSize) build(seed int64, tr *tracer) (instance, error) {
	w := &roundWorld{size: size, tr: tr, errs: make(map[int]error)}
	if tr != nil {
		w.sink, w.metrics, w.stats = &roundSink{}, netcluster.NewMetrics(), &wire.Stats{}
		w.rpcs = make(map[string]*rpcSamples)
	}
	if err := w.connect(seed); err != nil {
		w.close()
		return nil, err
	}
	for i := 0; i < size.Warmup; i++ {
		if _, err := w.round(); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up round %d: %w", i, err)
		}
	}
	if tr != nil {
		w.stats0 = w.stats.Snapshot()
	}
	return w, nil
}

func (w *roundWorld) connect(seed int64) error {
	size := w.size
	pd := netcluster.NewPipeDialer(w.stats)
	fcfg := fvsst.DefaultConfig()
	fcfg.UseIdleSignal = true
	budget := units.Watts(size.WattsPerCPU * float64(size.Agents*size.CPUsPerAgent))
	cfg := func(name string, s int64) netcluster.Config {
		// The RPC deadline is far beyond any round so that wall-clock
		// timeouts, which do not repeat, never decide an outcome.
		return netcluster.Config{
			Name: name, Fvsst: fcfg, Budget: budget, MissK: 3,
			RPCTimeout: 30 * time.Second, Seed: s,
			Dialer: pd, Codec: wire.CodecName,
		}
	}

	// Endless programs: with finite ones the fleet drains after ~100
	// rounds and a round collapses from ~50 ms to ~3 ms.
	progs := make([]workload.Program, len(roundApps))
	for i, name := range roundApps {
		p, err := workload.App(name, 1)
		if err != nil {
			return err
		}
		p.Loops = -1
		progs[i] = p
	}

	specs := make([]netcluster.NodeSpec, size.Agents)
	for i := range specs {
		mcfg := machine.P630Config()
		mcfg.NumCPUs = size.CPUsPerAgent
		mcfg.Seed = seed*1_000_003 + int64(i)
		m, err := machine.New(mcfg)
		if err != nil {
			return err
		}
		for cpu := 0; cpu < size.CPUsPerAgent; cpu++ {
			mix, err := workload.NewMix(progs[(int(seed)+i*size.CPUsPerAgent+cpu)%len(progs)])
			if err != nil {
				return err
			}
			if err := m.SetMix(cpu, mix); err != nil {
				return err
			}
		}
		name := "n" + strconv.Itoa(i)
		a, err := netcluster.NewAgent(netcluster.AgentConfig{Name: name, M: m})
		if err != nil {
			return err
		}
		w.closers = append(w.closers, a)
		pd.Register(name, a)
		specs[i] = netcluster.NodeSpec{Name: name, Addr: name}
	}

	top := cfg("root", seed)
	if w.tr != nil {
		top.Sink, top.Metrics, top.WireStats = w.sink, w.metrics, w.stats
	}
	if size.Fanout == 0 {
		c, err := netcluster.NewCoordinator(top, specs...)
		if err != nil {
			return err
		}
		w.flat = c
		return c.Connect()
	}

	var relaySpecs []netcluster.NodeSpec
	for j, lo := 0, 0; lo < size.Agents; j, lo = j+1, lo+size.Fanout {
		hi := min(lo+size.Fanout, size.Agents)
		name := "relay" + strconv.Itoa(j)
		sub, err := netcluster.NewCoordinator(cfg(name, seed+int64(j)+1), specs[lo:hi]...)
		if err != nil {
			return err
		}
		if err := sub.Connect(); err != nil {
			sub.Close()
			return err
		}
		relay, err := netcluster.NewRelay(netcluster.RelayConfig{Name: name}, sub)
		if err != nil {
			sub.Close()
			return err
		}
		w.relays = append(w.relays, relay)
		w.closers = append(w.closers, relay)
		pd.Register(name, relay)
		relaySpecs = append(relaySpecs, netcluster.NodeSpec{Name: name, Addr: name})
	}
	root, err := netcluster.NewRoot(top, relaySpecs...)
	if err != nil {
		return err
	}
	w.root = root
	return root.Connect()
}

func (w *roundWorld) round() (float64, error) {
	tr := w.tr
	if w.rounds < w.size.Warmup {
		tr = nil // spans cover the timed rounds only
	}
	tr.setOp(w.rounds - w.size.Warmup)
	id := tr.begin("netcluster.round", 0)
	start := time.Now()
	var err error
	if w.root != nil {
		err = w.root.RunRound()
	} else {
		err = w.flat.RunRound()
	}
	wall := time.Since(start).Seconds()
	tr.end(id)
	if w.tr != nil {
		w.consume(id)
	}
	w.rounds++
	return wall, err
}

// step runs one timed round. A RunRound error is that round's failure,
// not the run's: the fleet keeps going, as a deployment would.
func (w *roundWorld) step() (float64, error) {
	wall, err := w.round()
	if err != nil {
		w.errs[w.rounds-1] = err
	}
	return wall, nil
}

func (w *roundWorld) close() {
	if w.root != nil {
		w.root.Close()
	}
	if w.flat != nil {
		w.flat.Close()
	}
	for _, c := range w.closers {
		c.Close()
	}
}

// roundView is one round as the checks need it, from either driver.
type roundView struct {
	budget, charged units.Power
	acked, degraded bool
}

// finish walks the decision logs once, after the clock stopped: the
// per-round checks, the output digests and the traced layer numbers.
func (w *roundWorld) finish() (outcome, error) {
	defer w.close()
	var views []roundView
	// leaves are the coordinators whose decisions carry per-CPU
	// assignments: the flat one, or every relay's.
	var leaves [][]netcluster.Decision
	if w.root != nil {
		for _, d := range w.root.RootDecisions() {
			v := roundView{budget: d.Budget, charged: d.Charged, acked: true, degraded: len(d.Degraded) > 0}
			for _, g := range d.Grants {
				v.acked = v.acked && g.Acked
			}
			views = append(views, v)
		}
		for _, r := range w.relays {
			leaves = append(leaves, r.Coordinator().Decisions())
		}
	} else {
		decs := w.flat.Decisions()
		for _, d := range decs {
			views = append(views, roundView{budget: d.Budget, charged: d.Charged, acked: true, degraded: len(d.Degraded) > 0})
		}
		leaves = [][]netcluster.Decision{decs}
	}

	timed := w.rounds - w.size.Warmup
	out := outcome{
		Ops:    make([]string, timed),
		Failed: make([]string, timed),
		Work:   float64(w.size.Agents * w.size.CPUsPerAgent),
	}
	setup := sha256.New()
	fills := make([]float64, timed)
	for r := 0; r < w.rounds; r++ {
		h, why := hash.Hash(setup), ""
		if r >= w.size.Warmup {
			h = sha256.New()
		}
		switch {
		case w.errs[r] != nil:
			why = w.errs[r].Error()
		case r >= len(views):
			why = "round left no decision"
		default:
			v := views[r]
			putFloat(h, v.charged.W())
			for _, decs := range leaves {
				if r >= len(decs) {
					why = "a relay settled no decision"
					continue
				}
				d := decs[r]
				putFloat(h, d.Charged.W())
				for i, a := range d.Assignments {
					putFloat(h, a.Actual.MHz())
					// The drained-fleet trap: an idle CPU means the
					// programs ended and the round stopped doing work.
					if a.Idle {
						why = fmt.Sprintf("cpu %d reports idle: the fleet drained", i)
					}
				}
				for _, ok := range d.Acked {
					v.acked = v.acked && ok
				}
				v.degraded = v.degraded || len(d.Degraded) > 0
			}
			switch {
			case why != "":
			case v.charged > v.budget:
				why = fmt.Sprintf("charged %v over budget %v", v.charged, v.budget)
			case !v.acked:
				why = "a node did not acknowledge"
			case v.degraded:
				why = "a node is degraded"
			}
			if r >= w.size.Warmup {
				fills[r-w.size.Warmup] = v.charged.W() / v.budget.W()
			}
		}
		if r < w.size.Warmup {
			if why != "" {
				return out, fmt.Errorf("warm-up round %d: %s", r, why)
			}
			continue
		}
		out.Ops[r-w.size.Warmup] = hex.EncodeToString(h.Sum(nil))
		out.Failed[r-w.size.Warmup] = why
	}
	out.Setup = hex.EncodeToString(setup.Sum(nil))
	out.Counts = map[string][]float64{"cluster.budget_fill": fills}
	if w.tr != nil {
		out.Layers = w.layers(timed)
		out.Counts["fvsst.step2_demotions_per_round"] = w.demotions
	}
	return out, nil
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}
