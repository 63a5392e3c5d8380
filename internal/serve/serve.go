// Package serve is the open-loop request-serving subsystem: it turns a
// simulated machine into a queueing station whose service rate is
// whatever frequency the fvsst scheduler chose. The paper's motivating
// setting (§1, §5) is servers whose demand varies over the day; closed
// phase workloads scored on predicted IPC loss cannot show what a budget
// drop does to user-visible latency. This package can: per-client renewal
// arrival processes (deterministic per seed), request classes with size
// distributions, per-class latency SLOs, bounded priority/FIFO queues
// with token-bucket admission, and a scoring layer reporting p50/p95/p99
// latency, SLO attainment, goodput and Jain fairness.
//
// The integration with internal/machine is exact, not approximate: each
// CPU runs one reusable workload cursor, the machine's completion hook
// fires synchronously inside the dispatch loop at the interpolated
// completion instant, and the station rebinds the cursor to the next
// queued request on the spot — so a CPU drains its queue work-conserving
// within a quantum, completion times are sub-quantum accurate, and the
// steady-state per-request path allocates nothing. An empty queue leaves
// the cursor done, the machine's own idle accounting takes over, fvsst's
// idle indicator sees the CPU, and demand follows backlog with no extra
// coupling code.
package serve

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/workload"
)

// Class describes one request class served by a station.
type Class struct {
	// Name labels the class in traces and reports.
	Name string
	// Phase is the per-request execution profile (α, memory intensity);
	// its Instructions field is ignored — request sizes come from
	// MeanInstr/SizeCV.
	Phase workload.Phase
	// MeanInstr is the mean request size in instructions; SizeCV the
	// coefficient of variation of the Gamma-distributed sizes (0 = every
	// request exactly MeanInstr).
	MeanInstr float64
	SizeCV    float64
	// SLO is the per-request latency objective in seconds (arrival to
	// completion). Timeout, when positive, bounds queue waiting: requests
	// older than it are abandoned before service (in-service requests
	// always run to completion).
	SLO     float64
	Timeout float64
	// Priority orders classes at dispatch: higher drains first, FIFO
	// within a class. Ties break toward the earlier class index.
	Priority int
	// QueueCap bounds the class queue; arrivals beyond it are dropped.
	QueueCap int
	// AdmitRate/AdmitBurst configure token-bucket admission control in
	// requests/second; AdmitRate 0 disables the bucket.
	AdmitRate  float64
	AdmitBurst int
}

// Validate checks the class.
func (c Class) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("serve: class must have a name")
	}
	if err := c.Phase.Validate(); err != nil {
		// The template phase is validated with a placeholder length; the
		// real length is rebound per request.
		return fmt.Errorf("serve: class %q: %w", c.Name, err)
	}
	if c.MeanInstr < 1 || c.MeanInstr > 1e15 {
		return fmt.Errorf("serve: class %q mean size %v out of [1,1e15]", c.Name, c.MeanInstr)
	}
	if c.SizeCV < 0 || c.SizeCV > maxCV {
		return fmt.Errorf("serve: class %q size cv %v out of [0,%d]", c.Name, c.SizeCV, maxCV)
	}
	if c.SLO <= 0 {
		return fmt.Errorf("serve: class %q SLO %v must be positive", c.Name, c.SLO)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("serve: class %q timeout %v negative", c.Name, c.Timeout)
	}
	if c.QueueCap < 1 || c.QueueCap > 1<<20 {
		return fmt.Errorf("serve: class %q queue cap %d out of [1,2^20]", c.Name, c.QueueCap)
	}
	if c.AdmitRate < 0 || c.AdmitBurst < 0 {
		return fmt.Errorf("serve: class %q admission rate/burst negative", c.Name)
	}
	return nil
}

// PhaseProfile is a convenience request execution profile: perfect-IPC α
// with the given per-instruction memory reference rate (L2/L3 reference
// rates at the typical 5×/2× server ratios). Instructions is a
// placeholder — the station rebinds the real per-request size.
func PhaseProfile(alpha, memPerInstr float64) workload.Phase {
	return workload.Phase{
		Name:         "serve",
		Alpha:        alpha,
		Rates:        memhier.AccessRates{L2PerInstr: 5 * memPerInstr, L3PerInstr: 2 * memPerInstr, MemPerInstr: memPerInstr},
		Instructions: 1,
	}
}

// Config configures a station.
type Config struct {
	Classes []Class
	// Clients is how many client identities the fairness account tracks;
	// Offer rejects client indices outside [0, Clients).
	Clients int
	// Seed drives the request-size draws. By convention experiments use
	// machine seed + 17.
	Seed int64
}

// Outcome is the admission result of one offered request.
type Outcome int

const (
	// Admitted: the request entered its class queue.
	Admitted Outcome = iota
	// Rejected: the class token bucket had no token.
	Rejected
	// Dropped: the bounded class queue was full.
	Dropped
)

// request is one admitted unit of work.
type request struct {
	class   int
	client  int
	arrival float64
	size    uint64
}

// ring is a fixed-capacity FIFO of requests; capacity is the class queue
// bound, allocated once at station construction.
type ring struct {
	buf  []request
	head int
	n    int
}

func (r *ring) push(q request) {
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *ring) peek() *request { return &r.buf[r.head] }

func (r *ring) pop() request {
	q := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

// bucket is a token-bucket admission controller.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
}

func (b *bucket) take(now float64) bool {
	if b.rate <= 0 {
		return true
	}
	b.tokens += (now - b.last) * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// cpuState is one CPU's serving slot.
type cpuState struct {
	phases [1]workload.Phase
	prog   workload.Program
	cursor *workload.Cursor
	req    request
	busy   bool
}

// Station glues arrival streams, class queues and a machine together.
// It is not safe for concurrent use (the simulation is single-threaded).
type Station struct {
	cfg     Config
	classes []Class
	order   []int // class indices, highest priority first
	shapes  []float64
	sizeRng *rand.Rand
	queues  []ring
	buckets []bucket
	cpus    []cpuState
	score   *Scoreboard
}

// NewStation builds a station over the machine, installs one reusable
// serving cursor per CPU, and takes over the machine's completion hook.
func NewStation(m *machine.Machine, cfg Config) (*Station, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: nil machine")
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("serve: station needs at least one class")
	}
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("serve: station needs at least one client")
	}
	seen := make(map[string]bool)
	for _, c := range cfg.Classes {
		probe := c
		probe.Phase.Instructions = 1 // template length is per-request
		if err := probe.Validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("serve: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
	}
	s := &Station{
		cfg:     cfg,
		classes: append([]Class(nil), cfg.Classes...),
		sizeRng: newRand(cfg.Seed),
		queues:  make([]ring, len(cfg.Classes)),
		buckets: make([]bucket, len(cfg.Classes)),
		cpus:    make([]cpuState, m.NumCPUs()),
	}
	for i, c := range s.classes {
		s.queues[i].buf = make([]request, c.QueueCap)
		s.buckets[i] = bucket{rate: c.AdmitRate, burst: float64(c.AdmitBurst), tokens: float64(c.AdmitBurst)}
		s.shapes = append(s.shapes, 0)
		if c.SizeCV > 0 {
			s.shapes[i] = 1 / (c.SizeCV * c.SizeCV)
		}
		s.order = append(s.order, i)
	}
	// Dispatch order: priority descending, index ascending on ties.
	for i := 1; i < len(s.order); i++ {
		for j := i; j > 0; j-- {
			a, b := s.order[j-1], s.order[j]
			if s.classes[a].Priority < s.classes[b].Priority {
				s.order[j-1], s.order[j] = b, a
			}
		}
	}
	s.score = newScoreboard(s.classes, cfg.Clients)
	// One reusable single-phase cursor per CPU, born done (idle).
	for i := range s.cpus {
		cs := &s.cpus[i]
		cs.phases[0] = workload.Phase{Name: "serve-idle", Alpha: 1, Instructions: 1}
		cs.prog = workload.Program{Name: "serve-idle", Phases: cs.phases[:1]}
		mix, err := workload.NewMix(cs.prog)
		if err != nil {
			return nil, err
		}
		cs.cursor = mix.Jobs()[0]
		cs.cursor.Advance(1) // start idle
		if err := m.SetMix(i, mix); err != nil {
			return nil, err
		}
	}
	m.SetCompletionHook(s.onComplete)
	return s, nil
}

// Scoreboard returns the station's score account.
func (s *Station) Scoreboard() *Scoreboard { return s.score }

// Offer presents one request of the class from the client at simulated
// time now. The size draw happens unconditionally before admission, so
// two stations built with the same seed serve byte-identical request
// sequences even when their admission decisions diverge (the basis of
// cross-policy comparisons). Offers must be presented in non-decreasing
// time order.
func (s *Station) Offer(now float64, class, client int) Outcome {
	if class < 0 || class >= len(s.classes) {
		panic(fmt.Sprintf("serve: class %d out of range", class))
	}
	if client < 0 || client >= s.cfg.Clients {
		panic(fmt.Sprintf("serve: client %d out of range", client))
	}
	size := s.drawSize(class)
	s.score.offered(class)
	if !s.buckets[class].take(now) {
		s.score.rejected(class)
		return Rejected
	}
	q := &s.queues[class]
	if q.n == len(q.buf) {
		s.score.dropped(class)
		return Dropped
	}
	q.push(request{class: class, client: client, arrival: now, size: size})
	s.score.admitted(class)
	return Admitted
}

// drawSize draws the request's instruction count: Gamma with the class
// CV around the mean, floored at one instruction.
func (s *Station) drawSize(class int) uint64 {
	mean := s.classes[class].MeanInstr
	v := mean
	if sh := s.shapes[class]; sh > 0 {
		v = mean * workload.GammaGaps{Shape: sh}.Gap(s.sizeRng)
	}
	if v < 1 {
		v = 1
	}
	return uint64(v)
}

// BeforeQuantum starts service on any idle CPU with queued work. Call it
// immediately before each machine Step; arrivals land at quantum
// granularity (a request arriving mid-quantum waits for the next
// boundary, ≤ one dispatch quantum of extra latency).
func (s *Station) BeforeQuantum(now float64) {
	for i := range s.cpus {
		if !s.cpus[i].busy {
			s.startNext(i, now)
		}
	}
}

// AfterQuantum expires timed-out queue heads. Call it immediately after
// each machine Step.
func (s *Station) AfterQuantum(now float64) {
	for ci := range s.queues {
		to := s.classes[ci].Timeout
		if to <= 0 {
			continue
		}
		q := &s.queues[ci]
		// FIFO queues age monotonically, so expiry only ever holds at the
		// head.
		for q.n > 0 && now-q.peek().arrival > to {
			r := q.pop()
			s.score.timedOut(r.class)
		}
	}
}

// onComplete is the machine completion hook: record the finished request
// and immediately rebind the cursor to the next queued one so the CPU
// keeps serving within the same quantum.
func (s *Station) onComplete(jc machine.JobCompletion) {
	cs := &s.cpus[jc.CPU]
	if !cs.busy {
		return // not a serving completion (e.g. pre-station workload)
	}
	cs.busy = false
	s.score.completed(cs.req.class, cs.req.client, jc.At-cs.req.arrival)
	s.startNext(jc.CPU, jc.At)
}

// startNext pops the highest-priority runnable request and rebinds the
// CPU's cursor to it. Timed-out heads encountered on the way are
// abandoned. No-op when every queue is empty (the cursor stays done and
// the machine idles the CPU).
func (s *Station) startNext(cpu int, now float64) {
	for _, ci := range s.order {
		q := &s.queues[ci]
		to := s.classes[ci].Timeout
		for q.n > 0 {
			if to > 0 && now-q.peek().arrival > to {
				r := q.pop()
				s.score.timedOut(r.class)
				continue
			}
			s.serveOn(cpu, q.pop())
			return
		}
	}
}

// serveOn rebinds the CPU's reusable cursor to the request — the whole
// per-request dispatch is two struct writes and a cursor rewind, no
// allocation.
func (s *Station) serveOn(cpu int, r request) {
	cs := &s.cpus[cpu]
	cls := &s.classes[r.class]
	cs.phases[0] = cls.Phase
	cs.phases[0].Name = cls.Name
	cs.phases[0].Instructions = r.size
	cs.prog.Name = cls.Name
	cs.cursor.Rebind(cs.prog)
	cs.req = r
	cs.busy = true
}

// Backlog returns the total queued plus in-service request count — the
// demand signal a farm-level allocator sees from this station.
func (s *Station) Backlog() int {
	n := 0
	for i := range s.queues {
		n += s.queues[i].n
	}
	for i := range s.cpus {
		if s.cpus[i].busy {
			n++
		}
	}
	return n
}

// QueueLen returns the queued (not yet serving) count of one class.
func (s *Station) QueueLen(class int) int { return s.queues[class].n }

// Account is the station's conservation snapshot: every offered request
// is in exactly one terminal or live state. The invariant package checks
//
//	Offered  = Admitted + Rejected + Dropped
//	Admitted = Completed + TimedOut + Queued + InService
//
// every quantum.
type Account struct {
	Offered   uint64
	Admitted  uint64
	Rejected  uint64
	Dropped   uint64
	Completed uint64
	TimedOut  uint64
	Queued    int
	InService int
}

// Account returns the current conservation snapshot across all classes.
func (s *Station) Account() Account {
	var a Account
	for ci := range s.classes {
		row := &s.score.classes[ci]
		a.Offered += row.offered
		a.Admitted += row.admitted
		a.Rejected += row.rejected
		a.Dropped += row.dropped
		a.Completed += row.completed
		a.TimedOut += row.timedOut
		a.Queued += s.queues[ci].n
	}
	for i := range s.cpus {
		if s.cpus[i].busy {
			a.InService++
		}
	}
	return a
}

// Drained reports whether all admitted work has resolved (nothing
// queued, nothing in service).
func (s *Station) Drained() bool { return s.Backlog() == 0 }
