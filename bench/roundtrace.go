package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// roundSink is the benchmark-owned obs.Sink of a traced fleet: it holds
// one round's events until the benchmark drains them.
type roundSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *roundSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *roundSink) drain() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.events
	s.events = nil
	return ev
}

// rpcSamples collects the program's rpc:* span breakdowns of the timed
// rounds; the RPCs of a phase overlap, so they are summarised as medians
// and not laid out as spans.
type rpcSamples struct{ dur, queue, wire, apply []float64 }

// phaseSpans maps the program's span names to the layer that does the
// work, for the flat coordinator and (second column) the root, whose
// "poll" is the demand phase and "actuate" the grant phase.
var phaseSpans = map[string][2]string{
	obs.SpanPoll:     {"netcluster.poll", "netcluster.demand_phase"},
	obs.SpanSchedule: {"cluster.schedule", ""},
	obs.SpanDivide:   {"", "farm.divide"},
	obs.SpanActuate:  {"netcluster.actuate", "netcluster.grant_phase"},
}

// stepSpans are emitted flat under "pass" but happen inside "schedule".
var stepSpans = map[string]string{
	obs.SpanGridFill:  "perfmodel.gridfill",
	obs.SpanStepOne:   "fvsst.step1",
	obs.SpanStepTwo:   "fvsst.step2",
	obs.SpanStepThree: "fvsst.step3",
}

// consume turns the round's program events into spans under the
// benchmark's own round span. The program reports durations only, so the
// sequential phases are laid end to end from the round's start and the
// Figure-3 steps end to end from the schedule phase's start.
func (w *roundWorld) consume(roundSpan int) {
	events := w.sink.drain()
	if roundSpan == 0 {
		return // a warm-up round
	}
	tier := 0
	if w.root != nil {
		tier = 1
	}
	cursor := w.tr.startOf(roundSpan)
	var schedID int
	var schedCursor int64
	demotions := 0
	for _, e := range events {
		switch {
		case e.Type == obs.EventSchedule:
			demotions += len(e.Demotions)
		case e.Type != obs.EventSpan:
		case phaseSpans[e.Span][tier] != "":
			start := cursor
			var id int
			id, cursor = w.tr.place(phaseSpans[e.Span][tier], roundSpan, start, seconds(e.DurS))
			if e.Span == obs.SpanSchedule {
				schedID, schedCursor = id, start
			}
		case stepSpans[e.Span] != "":
			// Steps are emitted after their schedule span.
			_, schedCursor = w.tr.place(stepSpans[e.Span], schedID, schedCursor, seconds(e.DurS))
		case strings.HasPrefix(e.Span, "rpc:"):
			s := w.rpcs[e.Span]
			if s == nil {
				s = &rpcSamples{}
				w.rpcs[e.Span] = s
			}
			s.dur = append(s.dur, e.DurS)
			s.queue = append(s.queue, e.QueueS)
			s.wire = append(s.wire, e.WireS)
			s.apply = append(s.apply, e.ApplyS)
		}
	}
	w.demotions = append(w.demotions, float64(demotions))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// layers reads the numbers that are not spans: RPC medians, codec
// counters and transport counters.
func (w *roundWorld) layers(timed int) map[string]float64 {
	n := float64(timed)
	out := make(map[string]float64)
	for _, m := range []struct {
		metric, span string
		pick         func(*rpcSamples) []float64
	}{
		{"netcluster.rpc_demand_ms_p50", obs.SpanRPCDemand, func(s *rpcSamples) []float64 { return s.dur }},
		{"netcluster.rpc_demand_queue_ms_p50", obs.SpanRPCDemand, func(s *rpcSamples) []float64 { return s.queue }},
		{"netcluster.rpc_demand_wire_ms_p50", obs.SpanRPCDemand, func(s *rpcSamples) []float64 { return s.wire }},
		{"netcluster.rpc_grant_ms_p50", obs.SpanRPCGrant, func(s *rpcSamples) []float64 { return s.dur }},
		{"netcluster.rpc_counters_ms_p50", obs.SpanRPCCounters, func(s *rpcSamples) []float64 { return s.dur }},
		{"netcluster.rpc_counters_apply_ms_p50", obs.SpanRPCCounters, func(s *rpcSamples) []float64 { return s.apply }},
		{"netcluster.rpc_actuate_ms_p50", obs.SpanRPCActuate, func(s *rpcSamples) []float64 { return s.dur }},
	} {
		if s := w.rpcs[m.span]; s != nil {
			out[m.metric] = median(m.pick(s)) * 1e3
		}
	}

	st := w.stats.Snapshot()
	out["wire.encode_ms_per_round"] = float64(st.EncodeNanos-w.stats0.EncodeNanos) / 1e6 / n
	out["wire.decode_ms_per_round"] = float64(st.DecodeNanos-w.stats0.DecodeNanos) / 1e6 / n
	out["wire.bytes_per_round"] = float64(st.BytesOut+st.BytesIn-w.stats0.BytesOut-w.stats0.BytesIn) / n
	if reports := float64(st.DeltaIn + st.FullIn - w.stats0.DeltaIn - w.stats0.FullIn); reports > 0 {
		out["wire.delta_report_ratio"] = float64(st.DeltaIn-w.stats0.DeltaIn) / reports
	}

	for _, fam := range w.metrics.Registry.Snapshot() {
		var sum float64
		for _, s := range fam.Series {
			sum += s.Value
		}
		switch fam.Name {
		case "netcluster_rpc_retries_total":
			out["netcluster.retries"] = sum
		case "netcluster_rpc_timeouts_total":
			out["netcluster.timeouts"] = sum
		case "netcluster_degraded_nodes":
			out["netcluster.degraded_nodes"] = sum
		}
	}
	return out
}
